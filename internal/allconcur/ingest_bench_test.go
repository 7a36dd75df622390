package allconcur

import (
	"math/rand/v2"
	"testing"

	"allforone/internal/model"
	"allforone/internal/overlay"
)

// BenchmarkIngestItems is the layer benchmark of the ingest seam: one
// reactor at n=4096 folding the news of a crash run. Every live origin's
// value arrives once per predecessor (d=7 copies) in flood order — random,
// so the delivered set stays fragmented until the very end — eight origins
// have crashed and arrive as FAIL certificates instead (holes that never
// close), envelopes carry 64 items, and the outbox is handed off every
// eighth envelope as a flush would. The cost is reported per item copy,
// the unit a run pays Θ(n²·d) of.
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
					copies = append(copies, item{Kind: itemFail, Origin: uint32(q), Detector: uint32(s)})
				}
			} else {
				copies = append(copies, item{Kind: itemVal, Origin: uint32(q)})
			}
		}
	}
	rng := rand.New(rand.NewPCG(n, d))
	rng.Shuffle(len(copies), func(i, j int) { copies[i], copies[j] = copies[j], copies[i] })

	row := make([]uint64, n/64)
	values := proposals(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(row)
		rx := reactor{g: g, proposals: values, delivered: deliveredSet{bits: row}}
		for lo, env := 0, 0; lo < len(copies); lo, env = lo+perEnvelope, env+1 {
			rx.ingestItems(copies[lo:min(lo+perEnvelope, len(copies))])
			if env%perFlush == perFlush-1 {
				rx.outbox = nil
			}
		}
		if rx.delivered.Count() != n-n/512 || len(rx.fails) != n/512 {
			b.Fatalf("ingested %d values and %d crashes, want %d and %d", rx.delivered.Count(), len(rx.fails), n-n/512, n/512)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(copies)), "ns/item")
}
