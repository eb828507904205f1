// libFuzzer harness for the blob-store entry envelope (cache/blob_store.h,
// PSKB1 framing) behind both the result cache and pskd's skeleton store.
//
// An entry file is the one artifact both stores write and later re-read
// across restarts, so its decoder faces bytes that survived crashes, torn
// writes and bit rot.  Invariants checked beyond "does not crash":
//   - anything decode_entry accepts satisfies the hash invariant
//     hash == entry_hash(key, value) (the key, or for a content-addressed
//     entry with an empty key, the value),
//   - accepted bytes are canonical: re-encoding the decoded entry
//     reproduces the input exactly (there is only one valid encoding of
//     an entry, so no mutation can alias another entry),
//   - rejected bytes carry a typed error (Result-based API, no throws).
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "cache/blob_store.h"
#include "util/error.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  try {
    psk::archive::Result<psk::cache::BlobEntry> decoded =
        psk::cache::decode_entry(bytes);
    if (decoded.ok()) {
      const psk::cache::BlobEntry& entry = decoded.value();
      if (entry.hash != psk::cache::entry_hash(entry.key, entry.value)) {
        std::abort();  // hash invariant violated
      }
      if (psk::cache::encode_entry(entry.hash, entry.key, entry.value) !=
          bytes) {
        std::abort();  // accepted bytes must be the canonical encoding
      }
    }
  } catch (const psk::Error&) {
    // Result-based API; an Error here is tolerated but unexpected.
  }
  return 0;
}
