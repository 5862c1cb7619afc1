// Package artifact is the single codec layer for trained-model
// artifacts: every byte that the registry writes to or reads from disk
// goes through one of the codecs registered here. It unifies what used
// to be two hand-rolled serialisation paths (ml.SaveModel / LoadModel
// and hybrid.Model.Save / Load) behind a Codec interface with
// byte-level format detection, so the layers above — internal/registry,
// internal/serve's latest-pointer loads, internal/online's
// retrain-publish path, and the lam-model / lam-predict CLIs — neither
// know nor care how a given version was encoded.
//
// Two codecs exist:
//
//   - jsonv1 — the original JSON encoding, byte-for-byte unchanged.
//     Every registry written before the binary format keeps loading
//     forever; this codec is the forward-compat contract (pinned by the
//     goldens under testdata/).
//   - lamb1 — a versioned flat binary format: magic, format version,
//     model-kind header and CRC32-C trailer around each tree's node
//     table as columns (feature, right, nSamples, threshold, value),
//     little-endian and 8-byte aligned. Loading is one read-only file
//     mapping (the registry's; DecodeOptions.Owner keeps it alive),
//     slice-casting the columns out of it and one pack into the walk
//     table, the only per-node allocation — no per-node decode, no heap
//     copy of the file — which turns cold starts from a function of
//     model size into an effectively constant mapping (see
//     BenchmarkColdLoad* in internal/registry and BENCH_PR6.json). A
//     leaf's split fields (feature, threshold, right) are not part of
//     the model: the walk table keeps only a leaf's value, so any leaf
//     decodes to the same predictions and re-encodes, in either codec,
//     as feature -1, threshold 0, right -1.
//
// Contracts callers rely on:
//
//   - Bit-identity: a payload decoded from either codec produces
//     byte-identical predictions to its twin in the other codec,
//     asserted by a property test over random estimator configs and by
//     the committed goldens.
//   - Corruption safety: a truncated or bit-flipped artifact fails
//     Decode with a typed error wrapping lamerr.ErrCorruptArtifact —
//     never a panic, never a silently wrong model. lamb1's CRC covers
//     the whole header+payload, so any single-bit flip is detected
//     before parsing begins.
//   - Detection: Detect picks the codec from the artifact's leading
//     bytes (lamb1 by magic, jsonv1 by JSON syntax), so mixed-format
//     registries need no out-of-band bookkeeping beyond the cached
//     format in meta.json.
package artifact
