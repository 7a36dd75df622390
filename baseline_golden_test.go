package allforone

// The message-passing baselines' Outcomes of record: a hash per cell, taken
// on the commit before mpcoin's coroutine body was replaced by a reactor and
// the two baselines' per-exchange tallies stopped being maps. Every crash
// point, broadcast, counter bump and message consumption must stay at its
// sequence position — the network's RNG stream and the scheduler's (at,seq)
// order ride on them — so any rewrite of either protocol's round machine must
// reproduce these hashes. Each cell is also checked for agreement, validity
// and a conclusive verdict, so the table says "correct" as well as "same".

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"allforone/internal/sim"
)

// baselineGolden maps "<protocol>/n=<n>/<profile>/<crashes>" to the FNV-64a
// of the run's JSON Outcome with the storage counters zeroed.
var baselineGolden = map[string]uint64{
	"benor/n=1/uniform/crash-free":                    0x00db7f8bfb37c869,
	"benor/n=1/uniform/max-rounds-1":                  0x9d6ac2e878f4a7c5,
	"benor/n=1/skew/crash-free":                       0xfbfbf8a2ff0cac99,
	"benor/n=1/skew/max-rounds-1":                     0xfbfbf8a2ff0cac99,
	"benor/n=1/heal/crash-free":                       0x5c2e97fc9ddad229,
	"benor/n=1/heal/max-rounds-1":                     0x7de7f4762ed25dd9,
	"benor/n=4/uniform/crash-free":                    0xb21370b8ee7fc40d,
	"benor/n=4/uniform/max-rounds-1":                  0xf6bdae6e7a138179,
	"benor/n=4/uniform/max-steps-1":                   0xabd6c9bedd3759e1,
	"benor/n=4/uniform/max-steps-mid":                 0x467ddf1f37febf81,
	"benor/n=4/uniform/max-virtual-time":              0xa25f429d2b88f181,
	"benor/n=4/uniform/timed-minority":                0x045231ccf902200b,
	"benor/n=4/uniform/mid-broadcast-deliver-to":      0x38bb188a08456e2f,
	"benor/n=4/uniform/mid-broadcast-random-subset":   0x974386e6bc34b0f9,
	"benor/n=4/uniform/after-exchange":                0xcad2ff63dbc5edd5,
	"benor/n=4/uniform/before-decide-partial":         0x69b5aa4290554e8d,
	"benor/n=4/uniform/e2-majority":                   0x0879aa3c7eaa8745,
	"benor/n=4/skew/crash-free":                       0x0e48a4ad1819e4ed,
	"benor/n=4/skew/max-rounds-1":                     0xe3a9b8e5071eba79,
	"benor/n=4/skew/max-steps-1":                      0x0b8e6cc6b4e7e695,
	"benor/n=4/skew/max-steps-mid":                    0x2e8e30c4d5ec025f,
	"benor/n=4/skew/max-virtual-time":                 0xde165090890e3f89,
	"benor/n=4/skew/timed-minority":                   0x16ed6806906ab6cf,
	"benor/n=4/skew/mid-broadcast-deliver-to":         0xe066e8221e08ab81,
	"benor/n=4/skew/mid-broadcast-random-subset":      0xfbe0ec1a9a29b3e5,
	"benor/n=4/skew/after-exchange":                   0xd440adf961a2bbc3,
	"benor/n=4/skew/before-decide-partial":            0x4d3f8b31d402612d,
	"benor/n=4/skew/e2-majority":                      0x0ab15d39f1bdc4f5,
	"benor/n=4/heal/crash-free":                       0x5f66c25ac150c021,
	"benor/n=4/heal/max-rounds-1":                     0x3b5ae03ae44bcce1,
	"benor/n=4/heal/max-steps-1":                      0x36c2c0e74afc0169,
	"benor/n=4/heal/max-steps-mid":                    0x3d7a2f750db2c9e9,
	"benor/n=4/heal/max-virtual-time":                 0x401d4093116e678b,
	"benor/n=4/heal/timed-minority":                   0x21f3b122486f8325,
	"benor/n=4/heal/mid-broadcast-deliver-to":         0x51ecf0480eb9c83b,
	"benor/n=4/heal/mid-broadcast-random-subset":      0x9060273d4e97a3c3,
	"benor/n=4/heal/after-exchange":                   0x958bc635a7d9d4af,
	"benor/n=4/heal/before-decide-partial":            0xac0ffc77b5970b81,
	"benor/n=4/heal/e2-majority":                      0xc15ab7449c2b47b5,
	"benor/n=7/uniform/crash-free":                    0x55099e1dffe425d5,
	"benor/n=7/uniform/max-rounds-1":                  0x53fdd34bf3816213,
	"benor/n=7/uniform/max-steps-1":                   0xafb99098f08158c9,
	"benor/n=7/uniform/max-steps-mid":                 0x7d74b110fac120f9,
	"benor/n=7/uniform/max-virtual-time":              0xb9e5fb2146f3d951,
	"benor/n=7/uniform/timed-minority":                0xd0d66d114d64d229,
	"benor/n=7/uniform/mid-broadcast-deliver-to":      0x270a32bf3c06392d,
	"benor/n=7/uniform/mid-broadcast-random-subset":   0x8abd97cf16fd2195,
	"benor/n=7/uniform/after-exchange":                0x025b5ce904941659,
	"benor/n=7/uniform/before-decide-partial":         0x4c52c0141202da5b,
	"benor/n=7/uniform/e2-majority":                   0xd906a28c0b28086b,
	"benor/n=7/skew/crash-free":                       0x3d298383f52b8e97,
	"benor/n=7/skew/max-rounds-1":                     0xf2122db1a7d88d3b,
	"benor/n=7/skew/max-steps-1":                      0x7d0c99d10687d48d,
	"benor/n=7/skew/max-steps-mid":                    0x31ead17d0248ae4d,
	"benor/n=7/skew/max-virtual-time":                 0xcb85ceabb03b85f9,
	"benor/n=7/skew/timed-minority":                   0xd6acf827620270a9,
	"benor/n=7/skew/mid-broadcast-deliver-to":         0x4bc067ef07d38271,
	"benor/n=7/skew/mid-broadcast-random-subset":      0xa83cf5366f853f11,
	"benor/n=7/skew/after-exchange":                   0xacc4f6b7dd743153,
	"benor/n=7/skew/before-decide-partial":            0x46b0f30fb57f0145,
	"benor/n=7/skew/e2-majority":                      0x25120ec7b6779a23,
	"benor/n=7/heal/crash-free":                       0xd9b439b3a1778c87,
	"benor/n=7/heal/max-rounds-1":                     0xd445bc0400271eb1,
	"benor/n=7/heal/max-steps-1":                      0xfb7ccbb364b7695d,
	"benor/n=7/heal/max-steps-mid":                    0x77015b73547d9059,
	"benor/n=7/heal/max-virtual-time":                 0xf47286612e4fd555,
	"benor/n=7/heal/timed-minority":                   0xca8feb7cca9859c9,
	"benor/n=7/heal/mid-broadcast-deliver-to":         0xe03d0e0d219e4ead,
	"benor/n=7/heal/mid-broadcast-random-subset":      0xde61a9a94e68c961,
	"benor/n=7/heal/after-exchange":                   0x57e69d78e5b2062b,
	"benor/n=7/heal/before-decide-partial":            0x4e596c4d47dc0523,
	"benor/n=7/heal/e2-majority":                      0xa32b81963cc9d483,
	"benor/n=12/uniform/crash-free":                   0xd357554632a2640f,
	"benor/n=12/uniform/max-rounds-1":                 0x37675dbcaee16d3d,
	"benor/n=12/uniform/max-steps-1":                  0xe4046ed67ea30577,
	"benor/n=12/uniform/max-steps-mid":                0xfc99c076c67088c9,
	"benor/n=12/uniform/max-virtual-time":             0x6fb3981dffc5307f,
	"benor/n=12/uniform/timed-minority":               0x7019a4abec7b4647,
	"benor/n=12/uniform/mid-broadcast-deliver-to":     0xf0f47839dbed973b,
	"benor/n=12/uniform/mid-broadcast-random-subset":  0xf33532de87e098d3,
	"benor/n=12/uniform/after-exchange":               0xd4d5ee4371b5a99b,
	"benor/n=12/uniform/before-decide-partial":        0x337713c0bc34b73d,
	"benor/n=12/uniform/e2-majority":                  0x55610e69a459e545,
	"benor/n=12/skew/crash-free":                      0x7001dd825743dad9,
	"benor/n=12/skew/max-rounds-1":                    0x3375da4b808ee8e9,
	"benor/n=12/skew/max-steps-1":                     0x2ea1243471b059bb,
	"benor/n=12/skew/max-steps-mid":                   0x5e7874d1367b51f9,
	"benor/n=12/skew/max-virtual-time":                0xac2be4805e4387d1,
	"benor/n=12/skew/timed-minority":                  0xa35baa2f7c8b70cd,
	"benor/n=12/skew/mid-broadcast-deliver-to":        0x33384c2576df960f,
	"benor/n=12/skew/mid-broadcast-random-subset":     0xb50e885756e76faf,
	"benor/n=12/skew/after-exchange":                  0x9b03e28d07bfd7dd,
	"benor/n=12/skew/before-decide-partial":           0x6b6147229c8533ad,
	"benor/n=12/skew/e2-majority":                     0x256ae73ab8ee2941,
	"benor/n=12/heal/crash-free":                      0x5e6c5809efd863a9,
	"benor/n=12/heal/max-rounds-1":                    0xe9b4be7044ffe52d,
	"benor/n=12/heal/max-steps-1":                     0x63b52a0ade98fe0b,
	"benor/n=12/heal/max-steps-mid":                   0x12bbc5d8636fab95,
	"benor/n=12/heal/max-virtual-time":                0x62cb6cd7e1e3cc15,
	"benor/n=12/heal/timed-minority":                  0xae78be81a0b35f0b,
	"benor/n=12/heal/mid-broadcast-deliver-to":        0xd0261116d3ff903b,
	"benor/n=12/heal/mid-broadcast-random-subset":     0x3c449b89cd8f9347,
	"benor/n=12/heal/after-exchange":                  0x661772c318953749,
	"benor/n=12/heal/before-decide-partial":           0x2e5f71b21919a8af,
	"benor/n=12/heal/e2-majority":                     0xd3aebab7709a2da5,
	"mpcoin/n=1/uniform/crash-free":                   0xaf983ce3836f6935,
	"mpcoin/n=1/uniform/max-rounds-1":                 0x03348b5748587d11,
	"mpcoin/n=1/skew/crash-free":                      0xa44b3557a8810c7d,
	"mpcoin/n=1/skew/max-rounds-1":                    0x316766cac98f0179,
	"mpcoin/n=1/heal/crash-free":                      0xadd8ff183618b655,
	"mpcoin/n=1/heal/max-rounds-1":                    0xe828dbe70f29ef51,
	"mpcoin/n=4/uniform/crash-free":                   0xbf4882f58c88a47b,
	"mpcoin/n=4/uniform/max-rounds-1":                 0x4f4e33b3f452a501,
	"mpcoin/n=4/uniform/max-steps-1":                  0xbe3f32400af4bea5,
	"mpcoin/n=4/uniform/max-steps-mid":                0x0a8c9a74c2b93265,
	"mpcoin/n=4/uniform/max-virtual-time":             0xcde661d649f90c5d,
	"mpcoin/n=4/uniform/timed-minority":               0x957113436ee12645,
	"mpcoin/n=4/uniform/mid-broadcast-deliver-to":     0xc78370e30b49a9f1,
	"mpcoin/n=4/uniform/mid-broadcast-random-subset":  0x99c928441bc7e233,
	"mpcoin/n=4/uniform/after-exchange":               0x7689371889dfa825,
	"mpcoin/n=4/uniform/before-decide-partial":        0x9f8255cf52f18ff7,
	"mpcoin/n=4/uniform/e2-majority":                  0x5e69c75088a7a6f1,
	"mpcoin/n=4/skew/crash-free":                      0x425b0e14a430c651,
	"mpcoin/n=4/skew/max-rounds-1":                    0xd487c52329955bd5,
	"mpcoin/n=4/skew/max-steps-1":                     0x313e6752775b0835,
	"mpcoin/n=4/skew/max-steps-mid":                   0x3b672ef2ba78f9f5,
	"mpcoin/n=4/skew/max-virtual-time":                0x11f191f2a6802d5b,
	"mpcoin/n=4/skew/timed-minority":                  0xb3b94d595ec2d703,
	"mpcoin/n=4/skew/mid-broadcast-deliver-to":        0x556a06277aa6b6ff,
	"mpcoin/n=4/skew/mid-broadcast-random-subset":     0x9fdd09e2e5a48067,
	"mpcoin/n=4/skew/after-exchange":                  0x9ba2cc90fb1bd1d7,
	"mpcoin/n=4/skew/before-decide-partial":           0x3668118c4ace8085,
	"mpcoin/n=4/skew/e2-majority":                     0xf4996e4249faf415,
	"mpcoin/n=4/heal/crash-free":                      0x4d77780f929aa4a3,
	"mpcoin/n=4/heal/max-rounds-1":                    0x57e29eb76f80fdfd,
	"mpcoin/n=4/heal/max-steps-1":                     0xec676eb6afb97415,
	"mpcoin/n=4/heal/max-steps-mid":                   0x7fc05c9df605e05f,
	"mpcoin/n=4/heal/max-virtual-time":                0xfb1fdbf50a61109b,
	"mpcoin/n=4/heal/timed-minority":                  0x15b482f95049ced7,
	"mpcoin/n=4/heal/mid-broadcast-deliver-to":        0x946c8642d6d793ff,
	"mpcoin/n=4/heal/mid-broadcast-random-subset":     0x789d4b420ecc408b,
	"mpcoin/n=4/heal/after-exchange":                  0x6c172669f24c0dbb,
	"mpcoin/n=4/heal/before-decide-partial":           0x15ed7b4c8fd1f6f5,
	"mpcoin/n=4/heal/e2-majority":                     0x04f726a0469d8dad,
	"mpcoin/n=7/uniform/crash-free":                   0x2ceb70fe3bb0b3ef,
	"mpcoin/n=7/uniform/max-rounds-1":                 0x7ff3fab7b7de5149,
	"mpcoin/n=7/uniform/max-steps-1":                  0x3331bdc4a53016f9,
	"mpcoin/n=7/uniform/max-steps-mid":                0xd06f98a980425837,
	"mpcoin/n=7/uniform/max-virtual-time":             0x06b43013e723e0c5,
	"mpcoin/n=7/uniform/timed-minority":               0x7d1e2fcd3c306179,
	"mpcoin/n=7/uniform/mid-broadcast-deliver-to":     0x0b9ea192e8257e9d,
	"mpcoin/n=7/uniform/mid-broadcast-random-subset":  0x95858a2c31b76181,
	"mpcoin/n=7/uniform/after-exchange":               0xa7624784a7eb429d,
	"mpcoin/n=7/uniform/before-decide-partial":        0x152017ac48024c1f,
	"mpcoin/n=7/uniform/e2-majority":                  0x4bb67949b2ccad73,
	"mpcoin/n=7/skew/crash-free":                      0x682bea8a35ce8323,
	"mpcoin/n=7/skew/max-rounds-1":                    0xba6f8804ac2200fd,
	"mpcoin/n=7/skew/max-steps-1":                     0xfa174905d7df312d,
	"mpcoin/n=7/skew/max-steps-mid":                   0xc8d17b10749d242f,
	"mpcoin/n=7/skew/max-virtual-time":                0x55f2c00f806b0cd3,
	"mpcoin/n=7/skew/timed-minority":                  0xd7afae23762acde7,
	"mpcoin/n=7/skew/mid-broadcast-deliver-to":        0xa048a7d8e7d025bd,
	"mpcoin/n=7/skew/mid-broadcast-random-subset":     0xcb5f901a700c8dbd,
	"mpcoin/n=7/skew/after-exchange":                  0x59316da9f4ba5c8f,
	"mpcoin/n=7/skew/before-decide-partial":           0xef29201f64d080c7,
	"mpcoin/n=7/skew/e2-majority":                     0x85e8cceff2bcb543,
	"mpcoin/n=7/heal/crash-free":                      0x20e5f96568c06de7,
	"mpcoin/n=7/heal/max-rounds-1":                    0x6608b84ede103d15,
	"mpcoin/n=7/heal/max-steps-1":                     0x016f925fc2c0dec5,
	"mpcoin/n=7/heal/max-steps-mid":                   0x60f3d9923c36d71b,
	"mpcoin/n=7/heal/max-virtual-time":                0x5f7fdd0cc3315401,
	"mpcoin/n=7/heal/timed-minority":                  0x4976fe4df381968b,
	"mpcoin/n=7/heal/mid-broadcast-deliver-to":        0xa7fa456bbce9dffd,
	"mpcoin/n=7/heal/mid-broadcast-random-subset":     0x65f90bc297ffe6b1,
	"mpcoin/n=7/heal/after-exchange":                  0xefa6d224d869a8c7,
	"mpcoin/n=7/heal/before-decide-partial":           0x9af77a33cf3337eb,
	"mpcoin/n=7/heal/e2-majority":                     0x3b6b3dde5f5aa34b,
	"mpcoin/n=12/uniform/crash-free":                  0x35299ee5baaf9715,
	"mpcoin/n=12/uniform/max-rounds-1":                0x634979cd5b420803,
	"mpcoin/n=12/uniform/max-steps-1":                 0x7824b07980e2ec67,
	"mpcoin/n=12/uniform/max-steps-mid":               0x538da5fa5da552ff,
	"mpcoin/n=12/uniform/max-virtual-time":            0x5ec1a5a55ca54523,
	"mpcoin/n=12/uniform/timed-minority":              0x89914f9266e900b3,
	"mpcoin/n=12/uniform/mid-broadcast-deliver-to":    0x52f26ec04c70e517,
	"mpcoin/n=12/uniform/mid-broadcast-random-subset": 0xf9ea0abf87da924b,
	"mpcoin/n=12/uniform/after-exchange":              0x24eb9af42d731437,
	"mpcoin/n=12/uniform/before-decide-partial":       0xd227aa4b2648b2a9,
	"mpcoin/n=12/uniform/e2-majority":                 0x6c031ff477e94355,
	"mpcoin/n=12/skew/crash-free":                     0x5cb82a0897d7abfd,
	"mpcoin/n=12/skew/max-rounds-1":                   0xe3e8e780753c181d,
	"mpcoin/n=12/skew/max-steps-1":                    0x7f39181355f21cdb,
	"mpcoin/n=12/skew/max-steps-mid":                  0x04821cbda7f9bec1,
	"mpcoin/n=12/skew/max-virtual-time":               0x4d0b98ab4945131d,
	"mpcoin/n=12/skew/timed-minority":                 0xec3bd54f5cdf3f8d,
	"mpcoin/n=12/skew/mid-broadcast-deliver-to":       0xcffffcba33ed2f17,
	"mpcoin/n=12/skew/mid-broadcast-random-subset":    0x9169ec05c5759369,
	"mpcoin/n=12/skew/after-exchange":                 0x3f4ce7923125cac1,
	"mpcoin/n=12/skew/before-decide-partial":          0x0dc39f9daa9580db,
	"mpcoin/n=12/skew/e2-majority":                    0x82be71abc3543661,
	"mpcoin/n=12/heal/crash-free":                     0xa5224f41af600bad,
	"mpcoin/n=12/heal/max-rounds-1":                   0x04a045bd67f47417,
	"mpcoin/n=12/heal/max-steps-1":                    0x50bd8ee89869868f,
	"mpcoin/n=12/heal/max-steps-mid":                  0x2b86c6e07e0c2a81,
	"mpcoin/n=12/heal/max-virtual-time":               0xa69c6fbde4a917fd,
	"mpcoin/n=12/heal/timed-minority":                 0x572c0b8f26a45515,
	"mpcoin/n=12/heal/mid-broadcast-deliver-to":       0xf1364d31dd752669,
	"mpcoin/n=12/heal/mid-broadcast-random-subset":    0x53d0b1aad0f4eec3,
	"mpcoin/n=12/heal/after-exchange":                 0x82e9c2075ab9ad57,
	"mpcoin/n=12/heal/before-decide-partial":          0x2fb5a10c2c517ea1,
	"mpcoin/n=12/heal/e2-majority":                    0x860145daf31bd4fd,
}

// baselineProfiles are the three delay-policy shapes a baseline cell runs
// under: the paper trials' band, a deterministic per-link matrix, and a cut
// around the first third of the processes that heals at 300 µs.
var baselineProfiles = []struct {
	name  string
	build func(n int) NetworkProfile
}{
	{"uniform", func(int) NetworkProfile { return UniformProfile(0, 200*time.Microsecond) }},
	{"skew", func(n int) NetworkProfile {
		m := make([][]time.Duration, n)
		for i := range m {
			m[i] = make([]time.Duration, n)
			for j := range m[i] {
				m[i][j] = 10*time.Microsecond + time.Duration((3*i+5*j)%13)*11*time.Microsecond
			}
		}
		return SkewMatrixProfile(m)
	}},
	{"heal", func(n int) NetworkProfile {
		var cut []ProcID
		for p := 0; p < (n+2)/3; p++ {
			cut = append(cut, ProcID(p))
		}
		return HealingPartitionProfile(cut, 300*time.Microsecond, 0, 100*time.Microsecond)
	}},
}

// baselineCrashes are the failure patterns. A pattern without build runs
// crash-free under its bounds: the default round cap, one round, or a step
// or virtual-time bound that cuts the run — at its first event, inside the
// first exchanges, or before the healing partition heals. The first event is
// the earliest cut there is: the scheduler runs every process's first step
// before it fires any event, so no bound lands before a process started.
// Only the first two patterns run at n = 1, whose runs end within two steps.
// Every other pattern but e2 crashes a strict minority, so it exists
// only where a minority is non-empty (n ≥ 3); e2 is the paper's majority
// crash, everyone but one process at the top of round 1, which must leave
// the survivors blocked forever. The staged points sit in round 1;
// decidePhase is the phase a protocol decides in.
var baselineCrashes = []struct {
	name      string
	everyN    bool               // also runs at n = 1
	unanimous bool               // all propose One (the cell must reach a decision point)
	bounds    func(n int) Bounds // nil: MaxRounds 10 000
	build     func(t *testing.T, n, decidePhase int) *Schedule
}{
	{name: "crash-free", everyN: true},
	{name: "max-rounds-1", everyN: true, bounds: func(int) Bounds { return Bounds{MaxRounds: 1} }},
	{name: "max-steps-1", bounds: func(int) Bounds { return Bounds{MaxRounds: 10_000, MaxSteps: 1} }},
	{name: "max-steps-mid", bounds: func(n int) Bounds { return Bounds{MaxRounds: 10_000, MaxSteps: int64(n * n)} }},
	{name: "max-virtual-time", bounds: func(int) Bounds { return Bounds{MaxRounds: 10_000, MaxVirtualTime: 100 * time.Microsecond} }},
	{name: "timed-minority", build: func(t *testing.T, n, _ int) *Schedule {
		sched := NewSchedule(n)
		for k := 0; k < (n-1)/2; k++ {
			if err := sched.SetTimed(ProcID(2*k+1), time.Duration(k+1)*37*time.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
		return sched
	}},
	{name: "mid-broadcast-deliver-to", build: stagedMinority(1, StageMidBroadcast, func(n int) []ProcID {
		return []ProcID{ProcID(n - 1), ProcID(n / 2), 0}
	})},
	{name: "mid-broadcast-random-subset", build: stagedMinority(1, StageMidBroadcast, nil)},
	{name: "after-exchange", build: stagedMinority(1, StageAfterExchange, nil)},
	{name: "before-decide-partial", unanimous: true, build: stagedMinority(0, StageBeforeDecide, func(n int) []ProcID {
		return []ProcID{ProcID(n - 1)}
	})},
	{name: "e2-majority", build: func(t *testing.T, n, _ int) *Schedule {
		sched, err := CrashAllExcept(n, CrashPoint{Round: 1, Phase: 1, Stage: StageRoundStart}, ProcID(min(2, n-1)))
		if err != nil {
			t.Fatal(err)
		}
		return sched
	}},
}

// stagedMinority crashes the (n−1)/2 lowest-numbered processes at one round-1
// step point: phase 0 means the protocol's decide phase. deliverTo, when
// non-nil, names the recipients of the interrupted broadcast; nil leaves
// them to the protocol's own random subset.
func stagedMinority(phase int, stage CrashStage, deliverTo func(n int) []ProcID) func(*testing.T, int, int) *Schedule {
	return func(t *testing.T, n, decidePhase int) *Schedule {
		t.Helper()
		at := CrashPoint{Round: 1, Phase: phase, Stage: stage}
		if phase == 0 {
			at.Phase = decidePhase
		}
		sched := NewSchedule(n)
		for p := 0; p < (n-1)/2; p++ {
			c := Crash{At: at}
			if deliverTo != nil {
				c.DeliverTo = deliverTo(n)
			}
			if err := sched.Set(ProcID(p), c); err != nil {
				t.Fatal(err)
			}
		}
		return sched
	}
}

// TestBaselineOutcomeGolden holds Ben-Or and the message-passing common-coin
// baseline to their recorded Outcomes at n ∈ {1, 4, 7, 12}, under every
// profile and failure pattern above.
func TestBaselineOutcomeGolden(t *testing.T) {
	t.Parallel()
	for _, proto := range []struct {
		name        string
		decidePhase int
	}{{ProtocolBenOr, 2}, {ProtocolMPCoin, 1}} {
		for _, n := range []int{1, 4, 7, 12} {
			for _, prof := range baselineProfiles {
				for _, cr := range baselineCrashes {
					name := fmt.Sprintf("%s/n=%d/%s/%s", proto.name, n, prof.name, cr.name)
					if n < 3 && !cr.everyN {
						continue
					}
					props := make([]Value, n)
					for p := range props {
						props[p] = Value(p % 2)
						if cr.unanimous {
							props[p] = One
						}
					}
					h := fnv.New64a()
					h.Write([]byte(name))
					sc := Scenario{
						Protocol: proto.name,
						Topology: Topology{N: n},
						Workload: Workload{Binary: props},
						Profile:  prof.build(n),
						Seed:     int64(h.Sum64() >> 1),
						Bounds:   Bounds{MaxRounds: 10_000},
					}
					if cr.build != nil {
						sc.Faults = cr.build(t, n, proto.decidePhase)
					}
					if cr.bounds != nil {
						sc.Bounds = cr.bounds(n)
					}
					out, err := Run(sc)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					checkBaselineCell(t, name, sc, out, cr.name == "e2-majority")
					maskStorageCounters(out, &out.Raw.(*sim.Result).Sched)
					if got, want := jsonHash(t, out), baselineGolden[name]; got != want {
						t.Errorf("%s: Outcome hash %#016x, want %#016x (steps %d, virtual %v, msgs %d/%d)",
							name, got, want, out.Steps, out.VirtualTime, out.Metrics.MsgsDelivered, out.Metrics.MsgsSent)
					}
				}
			}
		}
	}
}

// checkBaselineCell requires a safe run with a conclusive verdict: agreement,
// validity, and either every live process decided, or the run quiesced, or —
// under a round cap — every undecided live process stopped at the cap. A
// majority-crash cell must quiesce with nobody decided. A cell with a step
// or virtual-time bound must instead be cut by it.
func checkBaselineCell(t *testing.T, name string, sc Scenario, out *Outcome, majorityCrash bool) {
	t.Helper()
	res := out.Raw.(*sim.Result)
	if err := res.CheckAgreement(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := res.CheckValidity(sc.Workload.Binary); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if cut := sc.Bounds.MaxSteps > 0 || sc.Bounds.MaxVirtualTime > 0; cut != out.BoundedOut() {
		t.Fatalf("%s: BoundedOut = %v, want %v: %+v", name, out.BoundedOut(), cut, out.Procs)
	}
	if out.BoundedOut() {
		return
	}
	if majorityCrash {
		if _, _, decided := out.Decided(); decided || !out.Quiesced {
			t.Fatalf("%s: a majority crash must block: quiesced %v, %+v", name, out.Quiesced, out.Procs)
		}
		return
	}
	if out.AllLiveDecided() || out.Quiesced {
		return
	}
	for p, pr := range out.Procs {
		if pr.Status == StatusBlocked && pr.Round != sc.Bounds.MaxRounds {
			t.Fatalf("%s: p%d blocked in round %d below the cap %d: %+v", name, p, pr.Round, sc.Bounds.MaxRounds, out.Procs)
		}
	}
}
