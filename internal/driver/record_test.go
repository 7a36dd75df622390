package driver

import (
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"
	"unsafe"
	"weak"

	"allforone/internal/metrics"
	"allforone/internal/model"
	"allforone/internal/netsim"
	"allforone/internal/vclock"
)

// fieldEnd returns where the field name of type typ ends, in bytes from the
// start of a struct that holds typ at offset base.
func fieldEnd(t *testing.T, typ reflect.Type, base uintptr, name string) uintptr {
	t.Helper()
	f, ok := typ.FieldByName(name)
	if !ok {
		t.Fatalf("%s has no field %s", typ, name)
	}
	return base + f.Offset + f.Type.Size()
}

// TestProcessRecordHotLine pins a process record's layout: every field one
// delivery (netsim's put, Proc.Wake) and one invocation (the scheduler's
// step, ReceiveNow, Killed, Now) reads lies in the record's first 64 bytes,
// and the record is a multiple of 64 bytes, so the records of a slab start
// on a cache line and a field added later cannot split the hot line without
// failing here. On a 32-bit platform, where pointers and interfaces are half
// as wide, the hot fields still lie in the first 64 bytes but the record is
// 88 bytes, so a slab's records do not all start on a cache line.
func TestProcessRecordHotLine(t *testing.T) {
	var h Handle
	procAt, boxAt := unsafe.Offsetof(h.proc), unsafe.Offsetof(h.inbox)
	hot := map[string]uintptr{
		"killed": unsafe.Offsetof(h.killed) + unsafe.Sizeof(h.killed),
	}
	for _, name := range []string{"s", "handler", "state", "rewake"} {
		hot["proc."+name] = fieldEnd(t, reflect.TypeOf(vclock.Proc{}), procAt, name)
	}
	for _, name := range []string{"first", "from", "n"} {
		hot["inbox."+name] = fieldEnd(t, reflect.TypeOf(netsim.Inbox{}), boxAt, name)
	}
	for name, end := range hot {
		if end > 64 {
			t.Errorf("hot field %s ends at byte %d, past the record's first cache line", name, end)
		}
	}
	if size := unsafe.Sizeof(h); strconv.IntSize == 32 {
		if size != 88 {
			t.Errorf("a record is %d bytes on a 32-bit platform; want 88", size)
		}
	} else if size%64 != 0 || size > 192 {
		t.Errorf("a record is %d bytes; want a multiple of 64, at most 192", size)
	}
}

// boxed is a payload that lives on the heap, so a reference the kept slab
// held to it would be one to a finished run's object.
// The pointer field keeps it out of the runtime's tiny allocator, which
// packs small pointer-free objects — this one is 8 bytes on 32-bit
// platforms — into shared 16-byte blocks, where a weak pointer to a dead one
// stays valid while a neighbour lives (weak.Pointer's doc): the test would
// then see a retention that is not there.
type boxed struct {
	from, seq int
	_         *boxed
}

// floodReactor sends every peer burst payloads at its first invocation and
// then drains its inbox only at every third invocation, so messages sit
// queued, in the inline slot and in the ring, when the step budget cuts the
// run.
type floodReactor struct {
	id     model.ProcID
	n      int
	h      *Handle
	nw     **netsim.Network
	wakes  int
	sent   *[]weak.Pointer[boxed]
	queued *int // the most messages an inbox held at the cut
}

func (r *floodReactor) React(aborted bool) bool {
	if aborted {
		*r.queued = max(*r.queued, r.h.inbox.Len())
		return true
	}
	if r.wakes == 0 {
		for q := 0; q < r.n; q++ {
			for k := 0; k < 6; k++ {
				b := &boxed{from: int(r.id), seq: k}
				*r.sent = append(*r.sent, weak.Make(b))
				(*r.nw).Send(r.id, model.ProcID(q), b)
			}
		}
	}
	r.wakes++
	if r.wakes%3 == 0 {
		for {
			if _, ok, _ := (*r.nw).ReceiveNow(r.id); !ok {
				break
			}
		}
	}
	return false
}

// TestRecycledRecordsCarryNothing: the record slab travels with the
// recycled scheduler, and nothing of the finished run — no queued payload,
// inline or in a ring, and no reactor — stays reachable from it. Runs cut by
// their step budget leave messages queued and in flight.
func TestRecycledRecordsCarryNothing(t *testing.T) {
	const n = 5
	var sent []weak.Pointer[boxed]
	var reactors []weak.Pointer[floodReactor]
	for run := 0; run < 4; run++ {
		var nw *netsim.Network
		var ctr metrics.Counters
		newNet := StandardNet(&nw, n, uint64(run), &ctr, 0, 50*time.Microsecond)
		queued := 0
		_, err := RunHandlers(Config{MaxSteps: 40}, n, newNet, func(i int, h *Handle) Reactor {
			r := &floodReactor{id: model.ProcID(i), n: n, h: h, nw: &nw, sent: &sent, queued: &queued}
			reactors = append(reactors, weak.Make(r))
			return r
		})
		if err != nil {
			t.Fatal(err)
		}
		if queued < 2 {
			t.Fatalf("run %d: at most %d message(s) queued in an inbox at the cut; the test would check no ring", run, queued)
		}
	}
	runtime.GC()
	for i, p := range sent {
		if p.Value() != nil {
			t.Fatalf("payload %d of a finished run is still reachable", i)
		}
	}
	for i, p := range reactors {
		if p.Value() != nil {
			t.Fatalf("reactor %d of a finished run is still reachable", i)
		}
	}
}
