// Package ml is a from-scratch, dependency-free implementation of the
// supervised regression estimators the paper's figures use from
// scikit-learn (Section V): CART decision trees, random forests and
// extremely randomized trees (extra trees), behind a standardising
// scaler (Pipeline), plus the paper's error metric, MAPE.
//
// All estimators are deterministic given their Seed, and fit in memory
// on the dataset sizes the paper uses (10^3–10^5 samples).
//
// Contracts callers rely on:
//
//   - Determinism: fitting and prediction are bit-identical for every
//     worker count — parallel loops write results by index and derive
//     per-unit seeds before fan-out (see internal/parallel).
//   - One entry point per operation: FitCtx, PredictCtx and
//     PredictBatchIntoCtx take a context first; Regressor.Fit,
//     Regressor.Predict and PredictBatchInto are the only conveniences
//     without one.
//   - Batch/single equivalence: PredictBatchIntoCtx equals len(X)
//     sequential Predict calls bit for bit, even where the compiled
//     plane scores batches tree-major for cache locality. The serving
//     layer's micro-batch coalescer is built on this guarantee.
//   - The *Into contract: PredictBatchIntoCtx (and its PredictBatchInto
//     convenience) writes into a caller-owned output slice of exactly
//     len(X) elements and performs zero allocations per call in steady
//     state with workers == 1 — single-row scratch (pipeline scaling
//     rows; GetScratch / PutScratch) and the pipeline's batch blocks
//     come from sync.Pools. This is the allocation-free path lam-serve
//     feeds its pooled response buffers through;
//     TestPredictAllocationFree and the serve-side AllocsPerRun guards
//     enforce it in CI.
//   - Batch means batch: a row block reaches the tree-major kernel as
//     a block through every wrapper nesting. Pipeline transforms up
//     to BatchBlock rows at a time into a pooled block and hands it to
//     the inner model's batch walk (see seqBatchIntoPredictor);
//     TestBatchPathMatchesPerRow pins the result to a per-row Predict
//     loop bit for bit.
//   - Three walks, one rule: the compiled plane scores a row across
//     four trees (row-major), a tree across four rows (tree-major), or
//     — the third walk — routes a whole batch down each tree, which
//     writes the rows column-major once and partitions an index array
//     of them at every split (routed.go). One unexported rule chooses
//     it: a sequential batch with at least routeMinRowsPerNode rows per
//     node of the average tree, such as a held-out set scored by a
//     model fitted on a few percent of its dataset, is routed as one
//     block, polled between trees; anything smaller is walked in
//     BatchBlock pieces. All three fold each row's trees in tree order,
//     so they agree bit for bit (TestRoutedMatchesWalk).
//   - Kept models own their tables; trial models borrow them. Fit and
//     FitCtx allocate the exact walk table a kept model needs.
//     Tables.FitScore fits a model that is scored once and dropped — a
//     sweep's trial — into a table borrowed from a Tables the caller
//     owns, and unfits the model before handing the table back, so a
//     borrowed record is reachable only from a model local to that
//     call (TestFitScoreMatchesFit, TestFitScoreLeavesKeptModelsAlone).
//   - Fitted estimators are immutable: after a successful Fit, Predict
//     and the batch path are safe for unbounded concurrent use, which is
//     what lets the server hot-swap model versions under live traffic.
package ml
