// Package artifact is the single codec layer for trained-model
// artifacts: every byte that the registry writes to or reads from disk
// goes through one of the codecs registered here, behind a Codec
// interface with byte-level format detection, so the layers above —
// internal/registry, internal/serve's latest-pointer loads,
// internal/online's retrain-publish path, and the lam-model /
// lam-predict CLIs — neither know nor care how a given version was
// encoded.
//
// Two codecs exist; one of them writes:
//
//   - lamb1 — the format every artifact is written in: a versioned
//     flat binary format, with magic, format version, model-kind header
//     and CRC32-C trailer around each model's walk table, stored
//     verbatim as 16-byte records (version 3), little-endian and
//     8-byte aligned. Loading is one read-only file mapping (the
//     registry's; DecodeOptions.Owner keeps it alive), a CRC and one
//     validation pass over the mapped records, which then are the walk
//     table — no per-node decode, no heap copy of the file, no per-node
//     allocation (see BenchmarkColdLoadBinary in internal/registry).
//     The CRC runs on its own goroutine while the payload decodes, and
//     the validation pass of a large table fans out over blocks of
//     trees; Decode joins the CRC before it returns on every path, and
//     a checksum mismatch is the error whatever the decode found.
//     Version-1 files (explicit left children) and version-2 files
//     (five node columns) decode forever into a packed heap table; a
//     leaf's split fields there (feature, threshold, right) are not
//     part of the model, so any legacy leaf decodes to the same
//     predictions and re-encodes as the canonical leaf record (feature
//     -1, right 0). New files are version 3; registry Convert migrates
//     the older versions.
//   - jsonv1 — the original JSON encoding, read-only. Every registry
//     written before the binary format keeps loading forever; this
//     codec is the forward-compat contract (pinned by the goldens under
//     testdata/, which nothing regenerates). Its Encode refuses: a
//     legacy version is migrated to lamb1 (registry Convert), never
//     written back.
//
// Contracts callers rely on:
//
//   - Bit-identity: a legacy artifact (jsonv1 or lamb1 version 1 or 2)
//     produces byte-identical predictions to its lamb1 conversion,
//     asserted over the committed goldens and fixtures; a lamb1
//     artifact decodes to predictions byte-identical to the model that
//     wrote it, asserted by a property test over random estimator
//     configs.
//   - Corruption safety: a truncated or bit-flipped artifact fails
//     Decode with a typed error wrapping lamerr.ErrCorruptArtifact —
//     never a panic, never a silently wrong model. lamb1's CRC covers
//     the whole header+payload, so any single-bit flip is detected, and
//     reported as a CRC mismatch ahead of any structural fault, in
//     place of whatever the decode beside the CRC returned. Both
//     decoders are fuzzed, and a decode's
//     allocation is bounded by its input's length.
//   - Detection: Detect picks the codec from the artifact's leading
//     bytes (lamb1 by magic, jsonv1 by JSON syntax), so mixed-format
//     registries need no out-of-band bookkeeping beyond the cached
//     format in meta.json.
package artifact
