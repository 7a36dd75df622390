package gossip

import (
	"math/rand/v2"
	"testing"
	"time"

	"allforone/internal/driver"
	"allforone/internal/failures"
	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/sim"
)

// swallowReactor wraps the real gossip reactor and refuses to invoke it
// inside [holdFrom, holdTo): a delivery landing in the window stays
// queued in the inbox. Normal scheduling drains every delivery at its
// arrival instant, so this is the only way to re-create the
// stale-queued-pull-at-crash-wake interleaving the ordering fix guards
// against.
type swallowReactor struct {
	inner            *reactor
	h                *driver.Handle
	holdFrom, holdTo time.Duration
}

func (w *swallowReactor) React(aborted bool) bool {
	if !aborted && !w.h.Killed() {
		if now := w.h.Now(); now >= w.holdFrom && now < w.holdTo {
			return false
		}
	}
	return w.inner.React(aborted)
}

// pullerStub sends one pull at t=0 and counts the rumor answers it gets.
type pullerStub struct {
	net    *netsim.Network
	sent   bool
	rumors *int
}

func (s *pullerStub) React(aborted bool) bool {
	if aborted {
		return true
	}
	if !s.sent {
		s.sent = true
		s.net.Send(1, 0, pullMsg{})
	}
	for {
		m, ok, _ := s.net.ReceiveNow(1)
		if !ok {
			break
		}
		if _, isRumor := m.Payload.(rumorMsg); isRumor {
			*s.rumors++
		}
	}
	return false
}

// TestCrashedResponderAnswersNoPull pins React's crash-check ordering: a
// timed-crash victim woken at its crash instant with a pull still queued
// must NOT answer it — the Killed() check has to run before the inbox
// drain, or the dead process sends rumorMsg at its crash instant,
// violating the crash-stop model. An infected pull-responder (proc 0)
// receives a pull at 450µs that a wrapper holds in the inbox; the timed
// crash at 500µs closes the inbox, which wakes the reactor with the
// stale pull still drainable.
func TestCrashedResponderAnswersNoPull(t *testing.T) {
	const crashAt = 500 * time.Microsecond
	crashes := failures.NewSchedule(2)
	if err := crashes.SetTimed(0, crashAt); err != nil {
		t.Fatal(err)
	}
	delay := func(_ time.Duration, _ *rand.Rand, m netsim.Message) time.Duration {
		if m.From == 1 {
			return 450 * time.Microsecond // the pull lands just before the crash
		}
		return 10 * time.Microsecond
	}
	var (
		ctr    metrics.Counters
		nw     *netsim.Network
		rumors int
		store  sim.ProcResult
	)
	dcfg := driver.Config{
		MaxVirtualTime: 50 * time.Millisecond,
		Crashes:        crashes,
	}
	newNet := driver.StandardNet(&nw, 2, 1, &ctr, 0, 0, netsim.WithTimedDelayFn(delay))
	_, err := driver.RunHandlers(dcfg, 2, newNet, func(i int, h *driver.Handle) driver.Reactor {
		if i == 0 {
			inner := &reactor{
				id:       0,
				h:        h,
				net:      nw,
				ctr:      &ctr,
				succ:     []model.ProcID{1},
				mode:     ModePull, // never sends on ticks: only pull answers
				store:    &store,
				infected: true,
				rounds:   1 << 20,
				roundLen: 10 * time.Millisecond,
			}
			return &swallowReactor{inner: inner, h: h, holdFrom: 400 * time.Microsecond, holdTo: crashAt}
		}
		return &pullerStub{net: nw, rumors: &rumors}
	})
	if err != nil {
		t.Fatal(err)
	}
	if store.Status != sim.StatusCrashed {
		t.Fatalf("victim status %v, want crashed", store.Status)
	}
	if rumors != 0 {
		t.Fatalf("crashed responder answered %d pull(s) at/after its crash instant", rumors)
	}
}
