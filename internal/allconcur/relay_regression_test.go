package allconcur

import (
	"testing"
	"time"

	"allforone/internal/driver"
	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/overlay"
	"allforone/internal/sim"
)

// lateVictimStub plays process 0 of a 3-process complete digraph: it
// floods its value at t=0 like a real reactor, then crashes LATE —
// emitting its tombstone markers at 1ms, long after its successors have
// decided — while recording every envelope that flows back, so the test
// can see whether the decided successors still turned the markers into
// FAIL(0,·) certificates.
type lateVictimStub struct {
	h       *driver.Handle
	net     *netsim.Network
	started bool
	marked  bool
	sawFail *bool
}

func (s *lateVictimStub) React(aborted bool) bool {
	if aborted {
		return true
	}
	if !s.started {
		s.started = true
		items := []item{{Kind: itemVal, Origin: 0}}
		s.net.Send(0, 1, &envelope{Seq: 0, Items: items})
		s.net.Send(0, 2, &envelope{Seq: 0, Items: items})
		s.h.WakeAfter(time.Millisecond)
	}
	for {
		m, ok, _ := s.net.ReceiveNow(0)
		if !ok {
			break
		}
		env, ok := m.Payload.(*envelope)
		if !ok {
			continue
		}
		for _, it := range env.Items {
			if it.Kind == itemFail && it.Origin == 0 {
				*s.sawFail = true
			}
		}
	}
	if !s.marked && s.h.Now() >= time.Millisecond {
		s.marked = true
		s.net.Send(0, 1, marker{Seq: 1})
		s.net.Send(0, 2, marker{Seq: 1})
	}
	return false
}

// TestDecidedReactorCertifiesLateMarker pins the relay-only decided mode:
// a tombstone marker landing at a successor AFTER that successor decided
// must still produce a FAIL(victim, successor) certificate. If deciding
// retired the reactor (closing its inbox), the marker would be dropped
// silently and any process still missing the victim's value could never
// resolve the suspect closure — blocking forever despite crashes < κ(G).
// Process 0 is a scripted victim whose markers arrive ~1ms after
// processes 1 and 2 decide; the test asserts a FAIL(0,·) item flows back
// to it.
func TestDecidedReactorCertifiesLateMarker(t *testing.T) {
	g, err := overlay.Spec{Kind: overlay.KindCirculant, Degree: 2}.Build(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	var (
		ctr     metrics.Counters
		nw      *netsim.Network
		sawFail bool
	)
	procs := make([]ProcResult, 3)
	values := proposals(3)
	dcfg := driver.Config{
		MaxVirtualTime: 50 * time.Millisecond,
		Complexity:     sim.StepsLinear,
	}
	newNet := driver.StandardNet(&nw, 3, 7, &ctr, 0, 20*time.Microsecond)
	_, err = driver.RunHandlers(dcfg, 3, newNet, func(i int, h *driver.Handle) driver.Reactor {
		id := model.ProcID(i)
		if i == 0 {
			return &lateVictimStub{h: h, net: nw, sawFail: &sawFail}
		}
		return &reactor{
			id:         id,
			h:          h,
			net:        nw,
			ctr:        &ctr,
			g:          g,
			succ:       g.Succ(id),
			preds:      g.Pred(id),
			proposals:  values,
			store:      &procs[i],
			sendSeq:    make([]uint32, len(g.Succ(id))),
			expect:     make([]uint32, len(g.Pred(id))),
			reorder:    make([][]heldPayload, len(g.Pred(id))),
			delivered:  deliveredSet{bits: make([]uint64, 1)},
			flushDelay: DefaultFlushDelay,
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if procs[i].Status != sim.StatusDecided || procs[i].Decision != "v0" {
			t.Fatalf("proc %d: status %v decision %q, want decided v0", i, procs[i].Status, procs[i].Decision)
		}
	}
	if !sawFail {
		t.Fatal("no FAIL(0,·) certificate flowed back: the late tombstone was dropped by a decided successor")
	}
}
