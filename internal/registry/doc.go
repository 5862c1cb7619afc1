// Package registry stores versioned trained-model artifacts on disk
// with their metadata, and is the one way to persist a model: publish
// once, load many times. It is the storage backend of the lam-serve
// prediction service, of the -registry flag on lam-predict and of the
// online retrainer.
//
// On-disk layout (one directory per model name, one per version):
//
//	<root>/<name>/v0001/meta.json   — Meta: kind, format, workload, …
//	<root>/<name>/v0001/model.lamb  — the artifact (lamb1 flat binary)
//	                                  — or model.json in a legacy
//	                                  jsonv1 version not yet converted
//	<root>/<name>/v0002/…
//
// All byte-level encoding and decoding goes through internal/artifact's
// codec layer; the registry only decides which codec to use. Every save
// writes lamb1; loads follow the format recorded in meta.json, and when
// it is absent (any registry written before the codec layer) sniff the
// artifact's leading bytes and cache the resolved format back into
// meta.json so only the first load pays the probe. Convert migrates a
// legacy version to lamb1 in place; ArtifactInfo summarises one without
// building a serving model.
//
// Contracts callers rely on:
//
//   - Versions auto-increment on save, are dense from 1, and are never
//     rewritten; writes go through a temporary directory renamed into
//     place, so a crashed or concurrent save can never produce a
//     half-readable version. Multiple Registry handles on one
//     directory may save concurrently.
//   - LatestVersion reads no directory while nothing changed: it checks
//     a cached scan with one fstat each of the root and the name
//     directory, held open, so a version another process publishes is
//     still seen on the next call. This needs a local filesystem's
//     mtimes (see LatestVersion).
//   - Published artifacts are immutable. Save and Convert write a
//     temporary file and rename it into place; nothing truncates or
//     rewrites an artifact in place, and nothing else may. meta.json is
//     replaced the same way, by one writer (writeMeta), so a reader
//     never sees a torn document. Load,
//     ArtifactInfo and Convert map the artifact read-only on Linux
//     (mmap_linux.go) and decode it in place: a lamb1 version-3
//     model's walk table is the mapped record block, which is released
//     once no tree or ensemble reading it is reachable. Every predict
//     reads the mapping, so truncating a mapped artifact under a
//     running process faults that process (SIGBUS), and rewriting it in
//     place changes the splits a loaded model walks.
//   - Legacy jsonv1 registries load forever, unchanged; a damaged
//     artifact in either format fails Load with an error wrapping
//     lamerr.ErrCorruptArtifact rather than panicking or serving a
//     silently wrong model. A lamb1 load computes the CRC beside the
//     decode; a checksum mismatch is still
//     the error reported, and the decode joins the CRC before it
//     returns, so a failed load's mapping may be released at once.
//   - Loading a hybrid model reconstructs its analytical component
//     from the (workload, machine) metadata, exactly as at training
//     time, so no caller hand-wires it.
//   - A loaded Model satisfies the facade's context-first Predictor
//     interface, decodes tree ensembles straight into the compiled
//     plane's flat node tables (a version-3 load allocates nothing per
//     node: the mapped records are the table), and its PredictBatchInto
//     is the
//     allocation-free serving path: batch output is bit-identical to
//     sequential Predict calls for every worker count.
package registry
