package machine

import "testing"

func TestSerialAccumulates(t *testing.T) {
	m := New(Origin2000, 4)
	m.AddSerial(100)
	m.AddSerial(50)
	if m.Time() != 150 || m.SerialCycles() != 150 {
		t.Errorf("time=%d serial=%d", m.Time(), m.SerialCycles())
	}
	if m.ParallelRegions() != 0 {
		t.Error("no regions expected")
	}
}

func TestParallelChargesSlowestPlusOverhead(t *testing.T) {
	p := Profile{Name: "t", ForkJoin: 1000, PerProc: 10, MemScale: 1000}
	m := New(p, 4)
	m.AddParallel([]uint64{10, 40, 20, 30})
	want := uint64(1000 + 4*10 + 40)
	if m.Time() != want {
		t.Errorf("time = %d, want %d", m.Time(), want)
	}
	if m.ParallelRegions() != 1 || m.ParallelCycles() != want {
		t.Errorf("regions=%d parallel=%d", m.ParallelRegions(), m.ParallelCycles())
	}
}

func TestParallelOnOneProcessorHasNoOverhead(t *testing.T) {
	m := New(Origin2000, 1)
	m.AddParallel([]uint64{500})
	if m.Time() != 500 || m.ParallelRegions() != 0 {
		t.Errorf("P=1 region should run serially: time=%d regions=%d", m.Time(), m.ParallelRegions())
	}
}

func TestMemScale(t *testing.T) {
	p := Profile{Name: "t", ForkJoin: 0, PerProc: 0, MemScale: 1500}
	m := New(p, 2)
	m.AddParallel([]uint64{100, 100})
	if m.Time() != 150 {
		t.Errorf("time = %d, want 150 (1.5x memory scaling)", m.Time())
	}
}

func TestProcsFloor(t *testing.T) {
	m := New(Origin2000, 0)
	if m.P != 1 {
		t.Errorf("P = %d, want clamped to 1", m.P)
	}
}

func TestStringHasProfile(t *testing.T) {
	m := New(Challenge, 4)
	m.AddSerial(10)
	if s := m.String(); s == "" || m.Profile.Name != "challenge" {
		t.Errorf("string/profile: %q", s)
	}
}
