// The figure registry behind `psk figure`: the paper's Figures 2-7, the
// design-choice ablations and the extension studies, each an entry that
// prints its table to stdout.
#pragma once

#include "util/cli.h"

namespace psk::figures {

/// `psk figure NAME...`: runs the named entries in argument order on one
/// shared ExperimentDriver built from the experiment flags
/// (core::experiment_flags()), then writes what the observability flags ask
/// for.  With no names, lists the entries.  An unknown name throws
/// ConfigError listing the valid ones before anything runs.
int cmd_figure(const util::Cli& cli);

}  // namespace psk::figures
