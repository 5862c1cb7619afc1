package online

// recoverFactor re-arms a tripped detector once the windowed MAPE falls
// back below recoverFactor × baseline — the hysteresis band that keeps
// a window oscillating around the trip threshold from firing
// repeatedly.
const recoverFactor = 1.1

// minMAPE is an absolute floor (percent) on the trip and re-arm
// thresholds: models whose recorded baseline is tiny (or zero, for
// artifacts saved without a TestMAPE) would otherwise trip on
// measurement noise alone.
const minMAPE = 5

// DetectorConfig tunes the drift detector. The zero value is usable:
// every field has a conservative default chosen so the detector is not
// flappy on noisy windows.
type DetectorConfig struct {
	// DegradeFactor trips the detector when the windowed MAPE exceeds
	// DegradeFactor × the model's registry-recorded test MAPE.
	// 0 means 1.5 (accuracy degraded by half again over the baseline).
	DegradeFactor float64
	// MinSamples is the number of windowed samples required before the
	// detector changes state in either direction, so a handful of
	// unlucky observations cannot trip it. 0 means 64.
	MinSamples int
}

func (c DetectorConfig) normalized() DetectorConfig {
	if c.DegradeFactor <= 0 {
		c.DegradeFactor = 1.5
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 64
	}
	return c
}

// threshold returns the trip threshold for a baseline MAPE.
func (c DetectorConfig) threshold(baseline float64) float64 {
	return max(c.DegradeFactor*baseline, minMAPE)
}

// recoverThreshold returns the re-arm threshold. It carries the same
// minMAPE floor as the trip threshold: with a zero or tiny recorded
// baseline, a pure recoverFactor×baseline band could demand a window
// MAPE the floor-tripped detector can never reach, latching it tripped
// forever. recoverFactor < DegradeFactor keeps it at or below the trip
// threshold, preserving the hysteresis band.
func (c DetectorConfig) recoverThreshold(baseline float64) float64 {
	return max(recoverFactor*baseline, minMAPE)
}

// detector is the per-model drift state machine. Not internally
// synchronised: the Plane guards it with the model's state lock.
type detector struct {
	cfg     DetectorConfig
	tripped bool
}

// update feeds one windowed accuracy reading and reports whether the
// detector fired on this reading (the untripped→tripped edge — the
// retrain trigger). While tripped it will not fire again; it re-arms
// only when the window recovers below the hysteresis band or is reset
// on publish.
func (d *detector) update(windowMAPE, baseline float64, n int) (fired bool) {
	if n < d.cfg.MinSamples {
		return false
	}
	if d.tripped {
		if windowMAPE <= d.cfg.recoverThreshold(baseline) {
			d.tripped = false
		}
		return false
	}
	if windowMAPE > d.cfg.threshold(baseline) {
		d.tripped = true
		return true
	}
	return false
}

func (d *detector) reset() { d.tripped = false }
