package tensor

import "testing"

func TestArenaReplayReusesStorage(t *testing.T) {
	var a Arena
	f1 := a.Floats(32)
	f2 := a.Floats(100)
	f1[0] = 7
	a.Reset()
	if got := a.Floats(32); &got[0] != &f1[0] {
		t.Fatal("replayed first slot did not reuse storage")
	}
	if got := a.Floats(50); &got[0] != &f2[0] {
		t.Fatal("replayed second slot did not reuse storage")
	}
}

func TestArenaReshapesSlots(t *testing.T) {
	var a Arena
	base := &a.Floats(100)[0]
	a.Reset()
	if small := a.Floats(25); &small[0] != base || len(small) != 25 {
		t.Fatal("smaller request should reuse slot storage")
	}
	a.Reset()
	if big := a.Floats(400); len(big) != 400 { // larger: grow
		t.Fatalf("grow failed: len %d", len(big))
	}
}

func TestArenaSteadyStateAllocs(t *testing.T) {
	var a Arena
	step := func() {
		a.Reset()
		m := a.Floats(256)
		v := a.Floats(64)
		m[0] = v[0]
	}
	step() // warm-up sizes the arena
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("steady-state arena step allocated %.1f times", n)
	}
}
