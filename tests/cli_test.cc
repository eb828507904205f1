// End-to-end regression tests for the CLI hardening: malformed numeric flag
// values and typo'd flag names must fail loudly (non-zero exit, diagnostic
// naming the problem) in the psk tool and in the bench binaries, instead of
// being silently misparsed as 0 or ignored.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "gtest/gtest.h"

namespace {

std::string binary_dir() { return std::string(PSK_BUILD_DIR); }

struct CommandResult {
  int exit_code = 0;
  std::string stdout_text;
  std::string stderr_text;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Runs `command`, capturing stdout and stderr.  The capture files are
/// unique per test process: ctest runs these concurrently.
CommandResult run_command(const std::string& command) {
  static int sequence = 0;
  const std::string stem = testing::TempDir() + "/cli_test_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(sequence++);
  const int status = std::system(
      (command + " > " + stem + ".out 2> " + stem + ".err").c_str());
  CommandResult result;
  result.exit_code = status;
  result.stdout_text = read_file(stem + ".out");
  result.stderr_text = read_file(stem + ".err");
  return result;
}

CommandResult run_psk(const std::string& args) {
  return run_command(binary_dir() + "/tools/psk " + args);
}

TEST(CliHardening, PskRejectsMalformedNumericFlag) {
  // --jobs=abc used to strtoll-parse as 0 (thread-count autodetect) and run.
  const CommandResult result = run_psk("predict --app=MG --jobs=abc");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.stderr_text.find("--jobs"), std::string::npos);
  EXPECT_NE(result.stderr_text.find("abc"), std::string::npos);
}

TEST(CliHardening, PskRejectsPartiallyNumericFlag) {
  const CommandResult result = run_psk("predict --app=MG --target=2.0x");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.stderr_text.find("--target"), std::string::npos);
}

TEST(CliHardening, PskRejectsTypoFlagListingValidOnes) {
  // --job=4 used to be silently ignored; it must now name the valid flags.
  const CommandResult result = run_psk("predict --app=MG --job=4");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.stderr_text.find("unknown flag --job"), std::string::npos);
  EXPECT_NE(result.stderr_text.find("--jobs"), std::string::npos);
}

TEST(CliHardening, PskRejectsUnknownFlagOnEveryCommand) {
  for (const char* command :
       {"apps", "scenarios", "run", "info", "report", "codegen", "figure"}) {
    const CommandResult result =
        run_psk(std::string(command) + " --no-such-flag=1");
    EXPECT_NE(result.exit_code, 0) << command;
    EXPECT_NE(result.stderr_text.find("unknown flag --no-such-flag"),
              std::string::npos)
        << command;
  }
}

TEST(CliHardening, PskRejectsUnknownValidateModeListingValidOnes) {
  // --validate is parsed before any file I/O or tracing, so the typo fails
  // with the configuration exit code (1) and the list of valid modes --
  // even when the rest of the command line would fail later for other
  // reasons (missing file, expensive trace).
  for (const char* command :
       {"run --skeleton=/nonexistent.skel", "predict --app=MG",
        "report --out=/dev/null"}) {
    const CommandResult result =
        run_psk(std::string(command) + " --validate=bogus");
    ASSERT_TRUE(WIFEXITED(result.exit_code)) << command;
    EXPECT_EQ(WEXITSTATUS(result.exit_code), 1) << command;
    EXPECT_NE(result.stderr_text.find("strict|salvage|off"),
              std::string::npos)
        << command << ": " << result.stderr_text;
    EXPECT_NE(result.stderr_text.find("bogus"), std::string::npos) << command;
  }
}

TEST(CliHardening, PskRejectsNegativeJobsOnEveryExperimentCommand) {
  // One check in the shared flag path: each command fails at parse time
  // with the configuration exit code, before any simulation.
  for (const char* command :
       {"predict --app=MG", "report --out=/dev/null", "figure fig4"}) {
    const CommandResult result =
        run_psk(std::string(command) + " --jobs=-1");
    ASSERT_TRUE(WIFEXITED(result.exit_code)) << command;
    EXPECT_EQ(WEXITSTATUS(result.exit_code), 1) << command;
    EXPECT_NE(result.stderr_text.find("--jobs must be >= 0"),
              std::string::npos)
        << command << ": " << result.stderr_text;
  }
}

TEST(CliHardening, PskFigureRejectsUnknownNameListingEntries) {
  const CommandResult result = run_psk("figure fig3 fig9 --class=S");
  ASSERT_TRUE(WIFEXITED(result.exit_code));
  EXPECT_EQ(WEXITSTATUS(result.exit_code), 1);
  EXPECT_NE(result.stderr_text.find("unknown figure 'fig9'"),
            std::string::npos)
      << result.stderr_text;
  for (const char* name : {"fig2", "fig7", "ablate_flutter", "ext_memory"}) {
    EXPECT_NE(result.stderr_text.find(name), std::string::npos) << name;
  }
  // Names are checked before anything runs: fig3 printed nothing.
  EXPECT_EQ(result.stdout_text, "");
}

TEST(CliHardening, PskFigureWithoutNamesListsEntries) {
  const CommandResult result = run_psk("figure");
  EXPECT_EQ(result.exit_code, 0);
  for (const char* name : {"fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                           "ablate_eager_threshold", "ext_full_suite"}) {
    EXPECT_NE(result.stdout_text.find(name), std::string::npos) << name;
  }
}

TEST(CliHardening, PskFigureExtensionEntriesHonourTopology) {
  // ext_oversubscription builds its own clusters; they take the
  // --topology of the command line, so the class-S table changes.
  const CommandResult result = run_psk(
      "figure ext_oversubscription --class=S --topology=dragonfly:2,2");
  ASSERT_TRUE(WIFEXITED(result.exit_code));
  EXPECT_EQ(WEXITSTATUS(result.exit_code), 0) << result.stderr_text;
  EXPECT_NE(result.stdout_text,
            read_file(std::string(PSK_SOURCE_DIR) +
                      "/tests/golden/ext_oversubscription_class_s.txt"));
  EXPECT_NE(result.stdout_text.find("oversubscribed"), std::string::npos);
}

TEST(CliHardening, PskRejectsNonPositiveOrNonFiniteTarget) {
  // --target=0 used to build a K=inf skeleton and exit 0; negative, nan and
  // inf targets clamped to K=1.  Both commands now refuse them with the
  // configuration exit code before reading or tracing anything (the trace
  // file below does not exist).
  for (const char* command :
       {"skeleton --trace=/nonexistent.trace --out=/dev/null",
        "predict --app=MG --class=S"}) {
    for (const char* target : {"0", "-1", "nan", "inf"}) {
      const CommandResult result =
          run_psk(std::string(command) + " --target=" + target);
      ASSERT_TRUE(WIFEXITED(result.exit_code)) << command << " " << target;
      EXPECT_EQ(WEXITSTATUS(result.exit_code), 1)
          << command << " --target=" << target << ": " << result.stderr_text;
      EXPECT_NE(result.stderr_text.find("--target must be a finite number"),
                std::string::npos)
          << command << " --target=" << target << ": " << result.stderr_text;
    }
  }
}

TEST(CliArchive, BinaryTraceFeedsCompress) {
  // `psk trace` writes a PSKARCH1 archive, and the commands that read
  // traces load it through the archive loader.
  const std::string stem = testing::TempDir() + "/cli_archive_" +
                           std::to_string(::getpid());
  const CommandResult traced =
      run_psk("trace --app=MG --class=S --out=" + stem + ".trace");
  ASSERT_EQ(traced.exit_code, 0) << traced.stderr_text;
  EXPECT_EQ(read_file(stem + ".trace").substr(0, 8), "PSKARCH1");
  const CommandResult compressed = run_psk(
      "compress --trace=" + stem + ".trace --out=" + stem + ".sig");
  ASSERT_EQ(compressed.exit_code, 0) << compressed.stderr_text;
  EXPECT_NE(compressed.stdout_text.find("compressed MG"), std::string::npos)
      << compressed.stdout_text;
  EXPECT_EQ(read_file(stem + ".sig").substr(0, 8), "PSKARCH1");
  std::remove((stem + ".trace").c_str());
  std::remove((stem + ".sig").c_str());
}

TEST(CliArchive, ArchiveSkeletonRunsUnderEveryValidateMode) {
  // The PSKARCH1 skeleton `psk skeleton` writes loads through the archive
  // loader in every command that reads skeletons, and replays the same
  // under every --validate mode.
  const std::string stem = testing::TempDir() + "/cli_archive_skel_" +
                           std::to_string(::getpid());
  const CommandResult traced =
      run_psk("trace --app=MG --class=S --out=" + stem + ".trace");
  ASSERT_EQ(traced.exit_code, 0) << traced.stderr_text;
  const CommandResult built = run_psk("skeleton --trace=" + stem +
                                      ".trace --target=0.2 --out=" + stem +
                                      ".skel");
  ASSERT_EQ(built.exit_code, 0) << built.stderr_text;
  EXPECT_EQ(read_file(stem + ".skel").substr(0, 8), "PSKARCH1");
  const CommandResult strict_run = run_psk("run --skeleton=" + stem + ".skel");
  ASSERT_EQ(strict_run.exit_code, 0) << strict_run.stderr_text;
  EXPECT_NE(strict_run.stdout_text.find("skeleton 'MG' under dedicated"),
            std::string::npos)
      << strict_run.stdout_text;
  for (const char* mode : {"strict", "salvage", "off"}) {
    const CommandResult run = run_psk("run --skeleton=" + stem +
                                      ".skel --validate=" + mode);
    EXPECT_EQ(run.exit_code, 0) << mode << ": " << run.stderr_text;
    EXPECT_EQ(run.stdout_text, strict_run.stdout_text) << mode;
  }
  const CommandResult info = run_psk("info --skeleton=" + stem + ".skel");
  EXPECT_EQ(info.exit_code, 0) << info.stderr_text;
  EXPECT_NE(info.stdout_text.find("skeleton of 'MG'"), std::string::npos)
      << info.stdout_text;
  const CommandResult emitted = run_psk("codegen --skeleton=" + stem +
                                        ".skel --out=" + stem + ".c");
  EXPECT_EQ(emitted.exit_code, 0) << emitted.stderr_text;
  // A missing skeleton or signature is an input error (exit 2), as a
  // missing trace is.
  for (const char* command : {"run --skeleton=", "codegen --out=/dev/null "
                              "--skeleton=", "info --signature="}) {
    const CommandResult missing = run_psk(command + stem + ".none");
    ASSERT_TRUE(WIFEXITED(missing.exit_code)) << command;
    EXPECT_EQ(WEXITSTATUS(missing.exit_code), 2)
        << command << ": " << missing.stderr_text;
  }
  for (const char* suffix : {".trace", ".skel", ".c"}) {
    std::remove((stem + suffix).c_str());
  }
}

TEST(CliArchive, TextFilesAreRefusedByName) {
  // The text trace, signature and skeleton formats are no longer read: each
  // command that loads one exits 2 naming the file.
  const std::string stem = testing::TempDir() + "/cli_text_" +
                           std::to_string(::getpid());
  const std::string trace = stem + ".trace";
  const std::string signature = stem + ".sig";
  const std::string skeleton = stem + ".skel";
  std::ofstream(trace) << "psk-trace 1\napp x\nranks 1\nrank 0 1 0 0\n";
  std::ofstream(signature)
      << "psk-signature 1\napp x\nthreshold 0\nratio 1\nranks 1\n"
         "rank 0 1 0 0\n";
  std::ofstream(skeleton)
      << "psk-skeleton 1\napp x\nk 1\nintended 1\nmin_good 1\ngood 1\n"
         "ranks 1\nrank 0 1 0 0\n";
  const std::pair<std::string, std::string> commands[] = {
      {"info --trace=" + trace, trace},
      {"info --signature=" + signature, signature},
      {"info --skeleton=" + skeleton, skeleton},
      {"compress --out=/dev/null --trace=" + trace, trace},
      {"skeleton --target=1 --out=/dev/null --trace=" + trace, trace},
      {"run --skeleton=" + skeleton, skeleton},
      {"run --validate=salvage --skeleton=" + skeleton, skeleton},
      {"codegen --out=/dev/null --skeleton=" + skeleton, skeleton},
  };
  for (const auto& [command, path] : commands) {
    const CommandResult result = run_psk(command);
    ASSERT_TRUE(WIFEXITED(result.exit_code)) << command;
    EXPECT_EQ(WEXITSTATUS(result.exit_code), 2)
        << command << ": " << result.stderr_text;
    EXPECT_NE(result.stderr_text.find(path), std::string::npos)
        << command << ": " << result.stderr_text;
  }
  for (const std::string& path : {trace, signature, skeleton}) {
    std::remove(path.c_str());
  }
}

TEST(CliHardening, BenchBinaryRejectsTypoFlag) {
  // --resum (for --resume) used to silently run a full non-resumed sweep.
  const CommandResult result =
      run_command(binary_dir() + "/bench/ext_faults --resum");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.stderr_text.find("unknown flag --resum"),
            std::string::npos);
  EXPECT_NE(result.stderr_text.find("--resume"), std::string::npos);
}

TEST(CliHardening, BenchBinaryRejectsMalformedJobs) {
  const CommandResult result =
      run_command(binary_dir() + "/bench/ext_faults --jobs=two");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.stderr_text.find("--jobs"), std::string::npos);
}

TEST(CliHardening, PskStillAcceptsValidFlags) {
  EXPECT_EQ(run_psk("apps").exit_code, 0);
  EXPECT_EQ(run_psk("scenarios").exit_code, 0);
}

}  // namespace
