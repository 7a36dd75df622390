package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"allforone/internal/driver"
	"allforone/internal/mailbox"
	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/overlay"
	"allforone/internal/protocol"
	"allforone/internal/shconsensus"
	"allforone/internal/vclock"
)

// The layer drivers: one unit cost per seam, each measured through the
// layer's exported functions alone and independent of the workload. A
// driver runs its operation for about d and returns the cost of one
// operation in its unit.

type layerDriver struct {
	name string
	unit string
	run  func(d time.Duration) (float64, error)
}

var layerDrivers = []layerDriver{
	{"vclock.timer_ns.live1k", "ns", timerNS(1_000)},
	{"vclock.timer_ns.live100k", "ns", timerNS(100_000)},
	{"vclock.handler_wake_ns", "ns", handlerWakeNS},
	{"vclock.coroutine_wake_ns", "ns", coroutineWakeNS},
	{"mailbox.put_get_ns", "ns", mailboxNS},
	{"netsim.send_ns", "ns", netNS(7, func(nw *netsim.Network, tick int) {
		for i := 0; i < 64; i++ {
			nw.Send(model.ProcID(i%7), model.ProcID((i+3)%7), tick)
		}
	})},
	// n=7 is the unsharded sendFan path, n=1024 the sharded fanJob one.
	{"netsim.sendall_ns_per_msg.n7", "ns", netNS(7, func(nw *netsim.Network, tick int) {
		for from := 0; from < 7; from++ {
			nw.SendAll(model.ProcID(from), tick)
		}
	})},
	{"netsim.sendall_ns_per_msg.n1024", "ns", netNS(1024, func(nw *netsim.Network, tick int) {
		for k := 0; k < 4; k++ {
			nw.SendAll(model.ProcID((4*tick+k)%1024), tick)
		}
	})},
	{"netsim.burstsend_ns_per_msg", "ns", netNS(1024, func(nw *netsim.Network, tick int) {
		for from := 0; from < 1024; from += 4 {
			for j := 1; j <= 4; j++ {
				nw.BurstSend(model.ProcID(from), model.ProcID((from*4+j+tick)%1024), tick)
			}
		}
	})},
	// The random family builds in quadratic time (0.84 s at n=10000), so its
	// driver stops at n=2000.
	{"overlay.build_ms.debruijn.n10000", "ms", overlayBuildMS(overlay.KindDeBruijn, 10_000)},
	{"overlay.build_ms.random.n2000", "ms", overlayBuildMS(overlay.KindRandom, 2_000)},
	{"driver.run_fixed_us.n7", "us", driverFixedUS(7)},
	{"driver.run_fixed_us.n1024", "us", driverFixedUS(1024)},
	{"protocol.run_fixed_us", "us", func(d time.Duration) (float64, error) {
		props := make([]model.Value, 7)
		return runsPer(d, time.Microsecond, 1, func(i int) []input {
			return []input{{sc: protocol.Scenario{
				Protocol: shconsensus.ProtocolName,
				Topology: protocol.Topology{N: 7},
				Workload: protocol.Workload{Binary: props},
				Seed:     int64(i),
			}, allowed: binaryDecisions}}
		})
	}},
	// One crash-free n=7 trial of each dense protocol, as paper-trials
	// generates them: hybrid on Fig1Right with the common coin, benor, mpcoin.
	{"core.run_us.n7", "us", paperTrialUS(3)},
	{"benor.run_us.n7", "us", paperTrialUS(4)},
	{"mpcoin.run_us.n7", "us", paperTrialUS(5)},
	{"smr.slot_us.n7", "us", func(d time.Duration) (float64, error) {
		return runsPer(d, time.Microsecond, 16, func(i int) []input {
			return genSMRKVLog(scale{smrSlots: 16, smrRuns: 1}, uint64(i))
		})
	}},
	{"gossip.run_ms.n1024", "ms", func(d time.Duration) (float64, error) {
		return runsPer(d, time.Millisecond, 1, func(i int) []input {
			return genGossipSparse(scale{gossipN: 1024}, uint64(i))
		})
	}},
	{"allconcur.run_ms.n512", "ms", allconcurMS(512)},
	{"allconcur.run_ms.n1024", "ms", allconcurMS(1024)},
}

// doublingRatio is allconcur's cost growth per doubling of n, from the two
// drivers above: 2 is linear, 4 quadratic.
const doublingRatio = "allconcur.doubling_ratio"

// runLayerDrivers takes `samples` samples of about d each from every driver
// and reports the medians.
func runLayerDrivers(d time.Duration, samples int) (map[string]float64, error) {
	out := make(map[string]float64, len(layerDrivers)+1)
	for _, ld := range layerDrivers {
		vs := make([]float64, samples)
		for i := range vs {
			v, err := ld.run(d)
			if err != nil {
				return nil, fmt.Errorf("bench: layer driver %s: %w", ld.name, err)
			}
			vs[i] = v
		}
		out[ld.name] = median(vs)
	}
	out[doublingRatio] = out["allconcur.run_ms.n1024"] / out["allconcur.run_ms.n512"]
	return out, nil
}

// perOp calls op until d has passed and returns the mean wall time of one
// call, in nanoseconds.
func perOp(d time.Duration, op func()) float64 {
	start := time.Now()
	for n := 1; ; n++ {
		op()
		if el := time.Since(start); el >= d {
			return float64(el.Nanoseconds()) / float64(n)
		}
	}
}

// rearm is a timer that re-arms itself uniformly over 8 ms — past the
// wheel's 4.2 ms horizon, so the overflow heap and its cascade are on the
// path — while the budget lasts.
type rearm struct {
	s    *vclock.Scheduler
	rng  *rand.Rand
	left *int
}

func (e *rearm) Fire() {
	if *e.left > 0 {
		*e.left--
		e.s.AfterEvent(vclock.Time(e.rng.Int64N(int64(8*time.Millisecond))), e)
	}
}

// timerNS is the cost of one AtEvent plus its pop while `live` timers are
// pending.
func timerNS(live int) func(time.Duration) (float64, error) {
	return func(d time.Duration) (float64, error) {
		rearms := max(4*live, 200_000)
		ns := perOp(d, func() {
			s := vclock.New()
			rng := rand.New(rand.NewPCG(1, uint64(live)))
			left := rearms
			for i := 0; i < live; i++ {
				s.AfterEvent(vclock.Time(rng.Int64N(int64(8*time.Millisecond))), &rearm{s: s, rng: rng, left: &left})
			}
			s.Run()
		})
		return ns / float64(live+rearms), nil
	}
}

const wakesPerRun = 200_000

// handlerWakeNS is one Wake plus the invocation it causes, between two
// inline handler procs.
func handlerWakeNS(d time.Duration) (float64, error) {
	ns := perOp(d, func() {
		s := vclock.New()
		left := wakesPerRun
		var a, b *vclock.Proc
		body := func(self, peer **vclock.Proc) func(bool) {
			return func(aborted bool) {
				if aborted || left <= 0 {
					(*self).Finish()
					return
				}
				left--
				(*peer).Wake()
			}
		}
		a = s.SpawnHandler("a", body(&a, &b))
		b = s.SpawnHandler("b", body(&b, &a))
		s.Run()
	})
	return ns / wakesPerRun, nil
}

// coroutineWakeNS is the same ping-pong between two coroutine procs: one
// Wake, one Park and the token handoff between their goroutines.
func coroutineWakeNS(d time.Duration) (float64, error) {
	ns := perOp(d, func() {
		s := vclock.New()
		left := wakesPerRun
		var a, b *vclock.Proc
		body := func(self, peer **vclock.Proc) func() {
			return func() {
				for left > 0 {
					left--
					(*peer).Wake()
					if !(*self).Park() {
						return
					}
				}
				(*peer).Wake()
			}
		}
		a = s.Spawn("a", body(&a, &b))
		b = s.Spawn("b", body(&b, &a))
		s.Run()
	})
	return ns / wakesPerRun, nil
}

// mailboxNS is one Put plus one TryGet on a warm ring.
func mailboxNS(d time.Duration) (float64, error) {
	const batch = 64
	v := mailbox.NewVirtual[int]()
	ns := perOp(d, func() {
		for round := 0; round < 16; round++ {
			for i := 0; i < batch; i++ {
				v.Put(i)
			}
			for i := 0; i < batch; i++ {
				v.TryGet()
			}
		}
	})
	return ns / (16 * batch), nil
}

// netTicker drives a network from the scheduler's own event loop: every
// 200 µs of virtual time it sends one tick's worth of messages, until d of
// wall time has passed.
type netTicker struct {
	s     *vclock.Scheduler
	nw    *netsim.Network
	send  func(nw *netsim.Network, tick int)
	tick  int
	start time.Time
	d     time.Duration
}

func (t *netTicker) Fire() {
	t.send(t.nw, t.tick)
	t.tick++
	if time.Since(t.start) < t.d {
		t.s.AfterEvent(vclock.Time(200*time.Microsecond), t)
	}
}

// netNS is the cost per delivered message of a send pattern: send →
// scheduler → inbox → a bound handler proc draining it with ReceiveNow, on
// an n-process network with uniform(0, 200 µs) delays.
func netNS(n int, send func(nw *netsim.Network, tick int)) func(time.Duration) (float64, error) {
	return func(d time.Duration) (float64, error) {
		s := vclock.New(vclock.WithShards(vclock.ShardsFor(n), workers))
		nw, err := netsim.New(n, netsim.WithScheduler(s), netsim.WithSeed(1),
			netsim.WithUniformDelay(0, 200*time.Microsecond))
		if err != nil {
			return 0, err
		}
		delivered := 0
		for p := 0; p < n; p++ {
			p := model.ProcID(p)
			var proc *vclock.Proc
			proc = s.SpawnHandler(fmt.Sprintf("p%d", p), func(aborted bool) {
				if aborted {
					proc.Finish()
					return
				}
				for {
					if _, ok, _ := nw.ReceiveNow(p); !ok {
						return
					}
					delivered++
				}
			})
			nw.Bind(p, proc)
		}
		start := time.Now()
		s.AtEvent(0, &netTicker{s: s, nw: nw, send: send, start: start, d: d})
		s.Run() // ends by quiescence once the ticker stops and the inboxes drain
		elapsed := time.Since(start)
		nw.Shutdown()
		if delivered == 0 {
			return 0, fmt.Errorf("no message was delivered")
		}
		return float64(elapsed.Nanoseconds()) / float64(delivered), nil
	}
}

func overlayBuildMS(kind overlay.Kind, n int) func(time.Duration) (float64, error) {
	return func(d time.Duration) (float64, error) {
		var err error
		seed := int64(0)
		ns := perOp(d, func() {
			seed++
			if _, e := (overlay.Spec{Kind: kind}).Build(n, seed); e != nil {
				err = e
			}
		})
		return ns / float64(time.Millisecond), err
	}
}

// finished is a reactor that is done at its first invocation.
type finished struct{}

func (finished) React(bool) bool { return true }

// driverFixedUS is what driver.RunHandlers costs before any protocol logic
// runs: a clock, a network and n procs, built, run once and torn down.
func driverFixedUS(n int) func(time.Duration) (float64, error) {
	return func(d time.Duration) (float64, error) {
		var err error
		seed := uint64(0)
		ns := perOp(d, func() {
			seed++
			var nw *netsim.Network
			var ctr metrics.Counters
			newNet := driver.StandardNet(&nw, n, seed, &ctr, 0, 200*time.Microsecond)
			_, e := driver.RunHandlers(driver.Config{Workers: workers}, n, newNet,
				func(int, *driver.Handle) driver.Reactor { return finished{} })
			if e != nil {
				err = e
			}
		})
		return ns / float64(time.Microsecond), err
	}
}

// runsPer generates inputs from a counter, runs them through protocol.Run
// until the runs alone have taken d, judges them, and returns the wall time
// per unit of work, in `unit`, where one generated batch holds `units` of it.
func runsPer(d, unit time.Duration, units int, gen func(i int) []input) (float64, error) {
	var busy time.Duration
	batches := 0
	for batches == 0 || busy < d {
		batches++
		for _, in := range gen(batches) {
			in.sc.Workers = workers
			t0 := time.Now()
			out, err := protocol.Run(in.sc)
			busy += time.Since(t0)
			if err := judge(in, out, err); err != nil {
				return 0, err
			}
		}
	}
	return float64(busy) / float64(unit) / float64(batches*units), nil
}

func paperTrialUS(cell int) func(time.Duration) (float64, error) {
	return func(d time.Duration) (float64, error) {
		return runsPer(d, time.Microsecond, 1, func(i int) []input {
			return genPaperTrials(scale{trials: 1}, uint64(i))[cell : cell+1]
		})
	}
}

func allconcurMS(n int) func(time.Duration) (float64, error) {
	return func(d time.Duration) (float64, error) {
		return runsPer(d, time.Millisecond, 1, func(i int) []input {
			return genAllconcurSparse(scale{allconcurN: n}, uint64(i))
		})
	}
}
