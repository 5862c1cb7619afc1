package machine

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

func TestPresetsValidate(t *testing.T) {
	for name, m := range Presets() {
		if err := validate(m); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
	}
}

func TestValidateCatchesBadMachines(t *testing.T) {
	good := BlueWatersXE6()
	cases := []struct {
		name   string
		mutate func(*Machine)
	}{
		{"no levels", func(m *Machine) { m.Levels = nil }},
		{"zero size", func(m *Machine) { m.Levels[0].SizeBytes = 0 }},
		{"size not multiple of line", func(m *Machine) { m.Levels[0].SizeBytes = 100 }},
		{"lines not divisible by ways", func(m *Machine) { m.Levels[0].Assoc = 7 }},
		{"shrinking hierarchy", func(m *Machine) { m.Levels[1].SizeBytes = 1 << 10 }},
		{"zero level bandwidth", func(m *Machine) { m.Levels[0].BandwidthBytesPerSec = 0 }},
		{"zero mem bandwidth", func(m *Machine) { m.MemBandwidthBytesPerSec = 0 }},
		{"zero flops", func(m *Machine) { m.FlopsPerCorePerSec = 0 }},
		{"zero cores", func(m *Machine) { m.Cores = 0 }},
		{"zero saturation", func(m *Machine) { m.BWSaturationThreads = 0 }},
		{"more levels than MaxLevels", func(m *Machine) {
			for len(m.Levels) <= MaxLevels {
				m.Levels = append(m.Levels, m.Levels[len(m.Levels)-1])
			}
		}},
	}
	for _, c := range cases {
		m := *good
		m.Levels = append([]CacheLevel{}, good.Levels...)
		c.mutate(&m)
		if err := validate(&m); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestCacheLevelConversions(t *testing.T) {
	l := CacheLevel{SizeBytes: 16 << 10, LineBytes: 64, BandwidthBytesPerSec: 8e9}
	if got := l.SizeElems(); got != 2048 {
		t.Errorf("SizeElems = %d, want 2048", got)
	}
	if got := l.LineElems(); got != 8 {
		t.Errorf("LineElems = %d, want 8", got)
	}
	if got := l.BetaSecPerElem(); math.Abs(got-1e-9) > 1e-15 {
		t.Errorf("BetaSecPerElem = %v, want 1e-9", got)
	}
}

func TestTimePerFlopAndBeta(t *testing.T) {
	m := BlueWatersXE6()
	if got := m.TimePerFlop(); math.Abs(got*m.FlopsPerCorePerSec-1) > 1e-12 {
		t.Errorf("TimePerFlop inconsistent: %v", got)
	}
	if got := m.MemBetaSecPerElem(); math.Abs(got*m.MemBandwidthBytesPerSec-8) > 1e-9 {
		t.Errorf("MemBetaSecPerElem inconsistent: %v", got)
	}
}

func TestEffectiveMemBandwidthSaturates(t *testing.T) {
	m := BlueWatersXE6()
	one := m.EffectiveMemBandwidth(1)
	if one != m.MemBandwidthBytesPerSec {
		t.Errorf("1-thread bandwidth = %v, want base %v", one, m.MemBandwidthBytesPerSec)
	}
	two := m.EffectiveMemBandwidth(2)
	if two <= one {
		t.Error("2 threads should add bandwidth below saturation")
	}
	sat := m.EffectiveMemBandwidth(int(m.BWSaturationThreads))
	beyond := m.EffectiveMemBandwidth(16)
	if beyond != sat {
		t.Errorf("bandwidth beyond saturation = %v, want flat %v", beyond, sat)
	}
	if m.EffectiveMemBandwidth(0) != one {
		t.Error("0 threads should be clamped to 1")
	}
}

func TestBlueWatersMatchesPaperGeometry(t *testing.T) {
	m := BlueWatersXE6()
	// Section III.A: 16KB L1 data, 2MB L2, 8MB shared L3.
	if m.Levels[0].SizeBytes != 16<<10 {
		t.Errorf("L1 = %d bytes, want 16KB", m.Levels[0].SizeBytes)
	}
	if m.Levels[1].SizeBytes != 2<<20 {
		t.Errorf("L2 = %d bytes, want 2MB", m.Levels[1].SizeBytes)
	}
	if m.Levels[2].SizeBytes != 8<<20 {
		t.Errorf("L3 = %d bytes, want 8MB", m.Levels[2].SizeBytes)
	}
	if m.Cores != 16 {
		t.Errorf("cores = %d, want 16 (dual 8-core Interlagos)", m.Cores)
	}
}

// validate checks that the machine description is physically sensible.
func validate(m *Machine) error {
	if len(m.Levels) == 0 {
		return errors.New("machine: at least one cache level required")
	}
	if len(m.Levels) > MaxLevels {
		return fmt.Errorf("machine: %d cache levels, at most %d supported", len(m.Levels), MaxLevels)
	}
	prev := 0
	for _, l := range m.Levels {
		if l.SizeBytes <= 0 || l.LineBytes <= 0 || l.Assoc <= 0 {
			return fmt.Errorf("machine: level %s has non-positive geometry", l.Name)
		}
		if l.SizeBytes%l.LineBytes != 0 {
			return fmt.Errorf("machine: level %s size not a multiple of line size", l.Name)
		}
		if (l.SizeBytes/l.LineBytes)%l.Assoc != 0 {
			return fmt.Errorf("machine: level %s lines not divisible by associativity", l.Name)
		}
		if l.SizeBytes < prev {
			return fmt.Errorf("machine: level %s smaller than inner level", l.Name)
		}
		if l.BandwidthBytesPerSec <= 0 {
			return fmt.Errorf("machine: level %s has non-positive bandwidth", l.Name)
		}
		prev = l.SizeBytes
	}
	if m.MemBandwidthBytesPerSec <= 0 {
		return errors.New("machine: non-positive memory bandwidth")
	}
	if m.FlopsPerCorePerSec <= 0 {
		return errors.New("machine: non-positive flop rate")
	}
	if m.Cores <= 0 {
		return errors.New("machine: non-positive core count")
	}
	if m.BWSaturationThreads <= 0 {
		return errors.New("machine: non-positive bandwidth-saturation thread count")
	}
	return nil
}
