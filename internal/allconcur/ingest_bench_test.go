package allconcur

import (
	"math/rand/v2"
	"testing"

	"allforone/internal/model"
	"allforone/internal/overlay"
)

// packBlocks turns a run of origin copies — single-origin VAL items and
// FAIL items — into the block form a sender's flush produces: the copies
// of one 64-origin block merge into one VAL item, in first-seen order, and
// the FAIL items follow.
func packBlocks(copies []item) []item {
	var vals, fails []item
	at := map[uint32]int{}
	for _, it := range copies {
		switch i, ok := at[it.Word]; {
		case it.Word == failWord:
			fails = append(fails, it)
		case ok:
			vals[i] = valItem(int(it.Word), vals[i].mask()|it.mask())
		default:
			at[it.Word] = len(vals)
			vals = append(vals, it)
		}
	}
	return append(vals, fails...)
}

// BenchmarkIngestItems is the layer benchmark of the ingest seam: one
// reactor at n=4096 folding the news of a crash run. Every live origin's
// value arrives once per predecessor (d=7 copies) in flood order — random,
// so the delivered set stays fragmented until the very end — eight origins
// have crashed and arrive as FAIL certificates instead (holes that never
// close), each envelope carries 64 origin copies in block form, and the
// outbox is built every eighth envelope as a flush would. The cost is
// reported per origin copy, the unit a run pays Θ(n²·d) of (and the unit
// of the earlier ns/item, when every copy was an item of its own).
func BenchmarkIngestItems(b *testing.B) {
	const n, d, perEnvelope, perFlush = 4096, 7, 64, 8
	g, err := overlay.Spec{Kind: overlay.KindDeBruijn, Degree: d}.Build(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	var copies []item
	for q := 0; q < n; q++ {
		for c := 0; c < d; c++ {
			if q%512 == 100 { // crashed: each successor's certificate instead
				for _, s := range g.Succ(model.ProcID(q)) {
					copies = append(copies, failItem(model.ProcID(q), s))
				}
			} else {
				copies = append(copies, valItem(q>>6, 1<<(q&63)))
			}
		}
	}
	rng := rand.New(rand.NewPCG(n, d))
	rng.Shuffle(len(copies), func(i, j int) { copies[i], copies[j] = copies[j], copies[i] })
	var envelopes [][]item
	for lo := 0; lo < len(copies); lo += perEnvelope {
		envelopes = append(envelopes, packBlocks(copies[lo:min(lo+perEnvelope, len(copies))]))
	}

	rows := make([]block, n/64)
	touched := make([]uint32, 0, n/64)
	values := proposals(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(rows)
		rx := reactor{g: g, proposals: values, delivered: deliveredSet{blocks: rows}, touched: touched}
		for env, items := range envelopes {
			rx.ingestItems(items)
			if env%perFlush == perFlush-1 {
				rx.takeOutbox()
			}
		}
		if rx.delivered.Count() != n-n/512 || len(rx.fails) != n/512 {
			b.Fatalf("ingested %d values and %d crashes, want %d and %d", rx.delivered.Count(), len(rx.fails), n-n/512, n/512)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(copies)), "ns/copy")
}
