package vclock

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"weak"
)

// body is a heap payload of a message event: who sent it to whom, so a
// delivery can check that the message arrived intact.
type body struct {
	id       int
	from, to int
}

// keyed is one scheduled item of the reference: its effective instant (the
// scheduler clamps past instants to now), its sequence number, and its id.
type keyed struct {
	at  Time
	seq uint64
	id  int
}

// mixNet is a Deliverer that logs every delivery, and a source of items:
// it schedules callback and message events at random through every path the
// scheduler has — AtEvent, AtMessage, and a sharded job's ShardInserter —
// and logs every pop. Deliveries and callbacks schedule more items, so the
// open slot's late heap is exercised too.
type mixNet struct {
	t      *testing.T
	s      *Scheduler
	rng    *rand.Rand
	budget int      // items still to schedule
	want   []keyed  // every item, at schedule (or insert) time
	fired  []keyed  // every pop, in order
	seqOf  []uint64 // item id → its sequence number
	atOf   []Time   // item id → its effective instant
	sent   []any    // item id → the payload a message item carries
	job    *mixJob  // the job registered for the open window, if any
	inJobs int      // items inserted by jobs
	late   int      // items scheduled into the open slot (its late heap)
}

// at returns a random instant from base: in the same slot, in the wheel,
// past the horizon (so it cascades), or base itself.
func (m *mixNet) at(base Time) Time {
	switch m.rng.IntN(4) {
	case 0:
		return base + Time(m.rng.Int64N(1<<slotWidthShift))
	case 1:
		return base + Time(m.rng.Int64N(1<<22))
	case 2:
		return base + Time(m.rng.Int64N(1<<27))
	default:
		return base
	}
}

// newItem reserves an id for an item to fire at at.
func (m *mixNet) newItem(at Time) int {
	id := len(m.atOf)
	if slotOf(max(at, m.s.Now())) <= m.s.wheel.curSlot {
		m.late++
	}
	m.atOf = append(m.atOf, max(at, m.s.Now()))
	m.seqOf = append(m.seqOf, 0)
	m.sent = append(m.sent, nil)
	return id
}

// payload builds a message item's payload: a heap body, a string or an
// int, so that both words of the slot travel.
func (m *mixNet) payload(id, from, to int) any {
	switch id % 3 {
	case 0:
		return &body{id: id, from: from, to: to}
	case 1:
		return fmt.Sprint("m", id)
	default:
		return id
	}
}

// route picks a message's sender and recipient; senders may be negative.
func (m *mixNet) route() (from, to int) {
	return m.rng.IntN(1<<20) - 3, m.rng.IntN(1 << 20)
}

// schedule spends one item of the budget on a random kind of item.
func (m *mixNet) schedule() {
	if m.budget == 0 {
		return
	}
	m.budget--
	at := m.at(m.s.Now())
	switch k := m.rng.IntN(5); {
	case k == 0:
		id := m.newItem(at)
		m.s.AtEvent(at, m.callback(id))
		m.seqOf[id] = m.s.seq
		m.want = append(m.want, keyed{m.atOf[id], m.s.seq, id})
	case k <= 2:
		id := m.newItem(at)
		from, to := m.route()
		m.sent[id] = m.payload(id, from, to)
		m.s.AtMessage(at, from, to, m.sent[id])
		m.seqOf[id] = m.s.seq
		m.want = append(m.want, keyed{m.atOf[id], m.s.seq, id})
	default:
		// An item of the window's job: it lands at a flush, on a sequence
		// number of the job's block.
		if m.job == nil {
			m.job = &mixJob{m: m, at: m.s.Now()}
			m.s.SubmitSealed(m.job, m.job.at)
		}
		m.job.add(at)
	}
}

// callback is a callback item's event: it logs the pop and schedules more.
func (m *mixNet) callback(id int) Event {
	return eventFunc(func() {
		m.fired = append(m.fired, keyed{m.s.Now(), m.seqOf[id], id})
		m.schedule()
		m.schedule()
	})
}

// Retire is not called: the test's processes finish by Finish, if at all.
func (m *mixNet) Retire(p int) { m.t.Fatalf("process %d retired", p) }

// Deliver logs a message's pop, checks what it carries, and schedules more.
func (m *mixNet) Deliver(from, to int, payload any) {
	id := -1
	switch p := payload.(type) {
	case *body:
		id = p.id
		if p.from != from || p.to != to {
			m.t.Fatalf("message %d sent %d→%d arrived as %d→%d", id, p.from, p.to, from, to)
		}
	case string:
		fmt.Sscanf(p, "m%d", &id)
	case int:
		id = p
	}
	if id < 0 || id >= len(m.sent) || m.sent[id] != payload {
		m.t.Fatalf("delivery of %v (%T) matches no message sent", payload, payload)
	}
	m.fired = append(m.fired, keyed{m.s.Now(), m.seqOf[id], id})
	m.schedule()
	m.schedule()
}

// mixJob is a window's expansion job: items queued between flushes, each
// inserted by shard id mod shards, on the number of the block its place in
// the queue gives it.
type mixJob struct {
	m     *mixNet
	at    Time
	items []int // ids, in queue order
}

func (j *mixJob) add(at Time) {
	id := j.m.newItem(max(at, j.at))
	j.items = append(j.items, id)
}

func (j *mixJob) Seal() (uint64, int64) {
	j.m.job = nil // the next item opens a new window
	return uint64(len(j.items)), 1
}

func (j *mixJob) ExpandShard(shard int, base uint64, ins *ShardInserter) {
	m := j.m
	for k, id := range j.items {
		if id%m.s.ShardCount() != shard {
			continue
		}
		seq := base + uint64(k)
		m.seqOf[id] = seq
		m.want = append(m.want, keyed{m.atOf[id], seq, id})
		m.inJobs++
		if id%2 == 0 {
			ins.At(m.atOf[id], seq, m.callback(id))
		} else {
			from, to := m.route()
			m.sent[id] = m.payload(id, from, to)
			ins.AtMessage(m.atOf[id], seq, from, to, m.sent[id])
		}
	}
}

// TestMessageEventsMatchReference interleaves callback events and message
// events through every tier of a sharded scheduler — the open slot's late
// heap, wheel buckets, the overflow heap and its cascade, and a job's
// ShardInserter at each flush — and checks that they pop in exactly the
// (at, seq) order of a reference sort, that every message reaches the
// network with its sender, recipient and payload intact, and that the
// counters count every event once.
func TestMessageEventsMatchReference(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := New(WithShards(4))
			m := &mixNet{t: t, s: s, rng: rand.New(rand.NewPCG(seed, 7)), budget: 4000}
			if err := s.SetNetwork(m); err != nil {
				t.Fatal(err)
			}
			for range 300 {
				m.schedule()
			}
			out := s.Run()
			if out.Aborted() {
				t.Fatalf("outcome = %+v", out)
			}
			slices.SortFunc(m.want, func(a, b keyed) int {
				if a.at != b.at {
					return int(a.at - b.at)
				}
				return int(a.seq) - int(b.seq)
			})
			if len(m.fired) != len(m.want) {
				t.Fatalf("%d items fired, %d scheduled", len(m.fired), len(m.want))
			}
			for i := range m.want {
				if m.fired[i] != m.want[i] {
					t.Fatalf("pop %d: %+v, reference %+v", i, m.fired[i], m.want[i])
				}
			}
			st := out.Stats
			if st.EventsScheduled != int64(len(m.want)) || st.ShardEvents != int64(m.inJobs) || m.inJobs == 0 ||
				st.WheelCascades == 0 || st.PoolFlushes == 0 || m.late == 0 {
				t.Fatalf("stats %+v: %d items, %d from jobs, %d into the open slot", st, len(m.want), m.inJobs, m.late)
			}
		})
	}
}

// TestRecycleDropsPayloads: once Recycle has handed a scheduler back, no
// payload of a message still in flight at the end of the run — in the open
// slot's late heap, a bucket or the overflow heap — is reachable from it,
// and its network registration is gone: the next run registers its own.
func TestRecycleDropsPayloads(t *testing.T) {
	const cutAt = Time(1) << 20
	for attempt := 0; ; attempt++ {
		if attempt == 100 {
			t.Fatal("the scheduler pool never handed the recycled scheduler back")
		}
		s := New(WithDeadline(cutAt + 20))
		var got recorder
		if err := s.SetNetwork(&got); err != nil {
			t.Fatal(err)
		}
		var bodies []weak.Pointer[body]
		send := func(at Time, to int) {
			b := &body{id: len(bodies), to: to}
			bodies = append(bodies, weak.Make(b))
			s.AtMessage(at, 0, to, b)
		}
		rng := rand.New(rand.NewPCG(uint64(attempt), 9))
		for k := range 400 {
			send(Time(rng.Int64N(1<<27)), k) // buckets and the overflow heap
		}
		s.AtEvent(cutAt, eventFunc(func() {
			for k := range 50 {
				send(s.Now()+Time(k), k) // the open slot's late heap
			}
		}))
		if out := s.Run(); !out.DeadlineExceeded {
			t.Fatalf("run was not cut: %+v", out)
		}
		if w := &s.wheel; len(got) == 0 || len(w.late) == 0 || w.wheelCount == 0 || len(w.overflow) == 0 {
			t.Fatalf("%d delivered; at the cut %d late, %d in buckets, %d in overflow: every tier must hold one",
				len(got), len(w.late), w.wheelCount, len(w.overflow))
		}
		s.Recycle()
		runtime.GC()
		for i, b := range bodies {
			if b.Value() != nil {
				t.Fatalf("payload %d of a recycled run is still reachable", i)
			}
		}
		s2 := New()
		if s2 != s {
			continue // the pool dropped it, or another test's scheduler came out
		}
		if s2.net != nil {
			t.Fatal("a recycled scheduler kept its network")
		}
		if err := s2.SetNetwork(&got); err != nil {
			t.Fatalf("a recycled scheduler refused its next run's network: %v", err)
		}
		s2.Recycle()
		return
	}
}

// TestOneNetworkPerScheduler: a scheduler carries one network per run; a
// second registration is refused and changes nothing, and a message event
// with no network registered is refused when it is scheduled. A nil payload
// travels like any other.
func TestOneNetworkPerScheduler(t *testing.T) {
	s := New()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AtMessage with no network did not panic")
			}
		}()
		s.AtMessage(0, 0, 0, nil)
	}()
	var first, second recorder
	if err := s.SetNetwork(&first); err != nil {
		t.Fatal(err)
	}
	if err := s.SetNetwork(&second); err == nil {
		t.Fatal("a second network was registered")
	}
	s.AtMessage(5, 1, 2, nil)
	s.Run()
	if len(first) != 1 || first[0] != 2 || len(second) != 0 {
		t.Fatalf("deliveries went to %v and %v, want [2] and none", first, second)
	}
}

// recorder is a Deliverer that logs each recipient.
type recorder []int

func (r *recorder) Deliver(_, to int, _ any) { *r = append(*r, to) }

// Retire ignores a finished process: the test asks only about deliveries.
func (r *recorder) Retire(int) {}
