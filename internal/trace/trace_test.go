package trace

import (
	"strings"
	"sync"
	"testing"

	"allforone/internal/model"
)

func TestNilLogIsSafe(t *testing.T) {
	t.Parallel()
	var l *Log
	l.Append(0, KindDecide, 1, 1, model.One) // must not panic
	if l.Len() != 0 {
		t.Error("nil log Len != 0")
	}
	if l.Events() != nil {
		t.Error("nil log Events != nil")
	}
}

func TestAppendAndOrder(t *testing.T) {
	t.Parallel()
	l := New()
	l.Append(0, KindPropose, 0, 0, model.One)
	l.Append(1, KindPropose, 0, 0, model.Zero)
	l.Append(0, KindDecide, 3, 2, model.One)
	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("Len = %d, want 3", len(evs))
	}
	for i, e := range evs {
		if e.Seq != int64(i) {
			t.Errorf("event %d has Seq %d", i, e.Seq)
		}
	}
	if evs[2].Kind != KindDecide || evs[2].Round != 3 {
		t.Errorf("last event = %+v", evs[2])
	}
}

func TestConcurrentAppend(t *testing.T) {
	t.Parallel()
	l := New()
	const procs, each = 8, 200
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p model.ProcID) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Append(p, KindRoundStart, i, 1, model.Bot)
			}
		}(model.ProcID(p))
	}
	wg.Wait()
	if got := l.Len(); got != procs*each {
		t.Errorf("Len = %d, want %d", got, procs*each)
	}
	// Seq numbers must be dense and unique.
	seen := make([]bool, procs*each)
	for _, e := range l.Events() {
		if e.Seq < 0 || e.Seq >= int64(len(seen)) || seen[e.Seq] {
			t.Fatalf("bad Seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

func TestFilter(t *testing.T) {
	t.Parallel()
	l := New()
	l.Append(0, KindPropose, 0, 0, model.One)
	l.Append(0, KindDecide, 1, 2, model.One)
	l.Append(1, KindDecide, 1, 2, model.One)
	if got := len(l.Filter(KindDecide)); got != 2 {
		t.Errorf("Filter(decide) = %d events, want 2", got)
	}
	if got := len(l.Filter(KindCrash)); got != 0 {
		t.Errorf("Filter(crash) = %d events, want 0", got)
	}
}

func TestCheckClusterUniformity(t *testing.T) {
	t.Parallel()
	part := model.Fig1Left() // P[1]={p1,p2,p3}
	ok := New()
	ok.Append(0, KindBroadcast, 1, 1, model.One)
	ok.Append(1, KindBroadcast, 1, 1, model.One)
	ok.Append(3, KindBroadcast, 1, 1, model.Zero) // other cluster may differ
	ok.Append(0, KindBroadcast, 2, 1, model.Zero) // other round may differ
	ok.Append(0, KindBroadcast, 1, 2, model.Zero) // other phase may differ
	if err := CheckClusterUniformity(ok, part); err != nil {
		t.Errorf("uniform log flagged: %v", err)
	}

	bad := New()
	bad.Append(0, KindBroadcast, 1, 1, model.One)
	bad.Append(2, KindBroadcast, 1, 1, model.Zero) // same cluster P[1]!
	err := CheckClusterUniformity(bad, part)
	if err == nil {
		t.Fatal("violation not detected")
	}
	if !strings.Contains(err.Error(), "uniformity") {
		t.Errorf("unexpected error text: %v", err)
	}
}

func TestKindAndEventStrings(t *testing.T) {
	t.Parallel()
	if got := KindClusterAgree.String(); got != "cluster-agree" {
		t.Errorf("Kind.String = %q", got)
	}
	if got := Kind(42).String(); got != "Kind(42)" {
		t.Errorf("Kind.String = %q", got)
	}
	e := Event{Seq: 5, P: 2, Kind: KindDecide, Round: 3, Phase: 2, Value: model.One}
	want := "#5 p3 decide r3/ph2 v=1"
	if got := e.String(); got != want {
		t.Errorf("Event.String = %q, want %q", got, want)
	}
}
