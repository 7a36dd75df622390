package allforone

// The Outcomes of record of the binary round machines — Ben-Or, the
// message-passing common-coin baseline and both hybrid algorithms: a hash per
// cell. The benor and mpcoin cells were taken on the commit before mpcoin's
// coroutine body was replaced by a reactor and the two baselines' per-exchange
// tallies stopped being maps; the hybrid cells and every after-cluster-
// consensus cell on the coroutine bodies of hybrid and benor, before those
// were deleted. Every crash point, broadcast, counter bump and message
// consumption must stay at its sequence position — the network's RNG stream
// and the scheduler's (at,seq) order ride on them — so any rewrite of a round
// machine must reproduce these hashes. Each cell is also checked for
// agreement, validity and a conclusive verdict, so the table says "correct"
// as well as "same".

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

	// The after-cluster-consensus and decide-phase after-exchange cells and
	// the hybrid rows, recorded on the coroutine bodies of benor and hybrid
	// (mpcoin: its reactor).
	"benor/n=4/uniform/after-cluster-consensus":              0x52e35f88fdd5d35f,
	"benor/n=4/uniform/after-exchange-decide-phase":          0x73cb759215578433,
	"benor/n=4/skew/after-cluster-consensus":                 0x75de956b8989384f,
	"benor/n=4/skew/after-exchange-decide-phase":             0x9eaa25ed5c7dda15,
	"benor/n=4/heal/after-cluster-consensus":                 0xa9e2cbfcd47bf0a9,
	"benor/n=4/heal/after-exchange-decide-phase":             0xdfe0b512f55f0a37,
	"benor/n=7/uniform/after-cluster-consensus":              0x55b89341bcaa9fc1,
	"benor/n=7/uniform/after-exchange-decide-phase":          0x01823b015354c381,
	"benor/n=7/skew/after-cluster-consensus":                 0xf7259b40ba09bb0d,
	"benor/n=7/skew/after-exchange-decide-phase":             0x0ce35d707c27e641,
	"benor/n=7/heal/after-cluster-consensus":                 0xe19d57ac3e1cadab,
	"benor/n=7/heal/after-exchange-decide-phase":             0x41239933f045d049,
	"benor/n=12/uniform/after-cluster-consensus":             0xb3133aed9b9376dd,
	"benor/n=12/uniform/after-exchange-decide-phase":         0x09a53e3dc9b62eb1,
	"benor/n=12/skew/after-cluster-consensus":                0xc0b36ef9f42996af,
	"benor/n=12/skew/after-exchange-decide-phase":            0x251e203282feb29b,
	"benor/n=12/heal/after-cluster-consensus":                0x77dcf95cb0c7c47b,
	"benor/n=12/heal/after-exchange-decide-phase":            0xd627e98e1f10af97,
	"mpcoin/n=4/uniform/after-cluster-consensus":             0x07c1bcb8f33f81a1,
	"mpcoin/n=4/uniform/after-exchange-decide-phase":         0xe8a3babf2445b923,
	"mpcoin/n=4/skew/after-cluster-consensus":                0x9fdd09e2e5a48067,
	"mpcoin/n=4/skew/after-exchange-decide-phase":            0xff290b4f46f75333,
	"mpcoin/n=4/heal/after-cluster-consensus":                0xe10c464afa11a80b,
	"mpcoin/n=4/heal/after-exchange-decide-phase":            0x4f7ea6ed5eecca23,
	"mpcoin/n=7/uniform/after-cluster-consensus":             0xdcd14a07e2dd5809,
	"mpcoin/n=7/uniform/after-exchange-decide-phase":         0x9c21bcb1510299d1,
	"mpcoin/n=7/skew/after-cluster-consensus":                0x947c3650ebbd95d9,
	"mpcoin/n=7/skew/after-exchange-decide-phase":            0x9fce80136901a84d,
	"mpcoin/n=7/heal/after-cluster-consensus":                0xb1f934aa598b9dc9,
	"mpcoin/n=7/heal/after-exchange-decide-phase":            0x7874a599c5a84db5,
	"mpcoin/n=12/uniform/after-cluster-consensus":            0x62fb574714212be7,
	"mpcoin/n=12/uniform/after-exchange-decide-phase":        0xd138c6612738d76f,
	"mpcoin/n=12/skew/after-cluster-consensus":               0xa690c0206c69ba11,
	"mpcoin/n=12/skew/after-exchange-decide-phase":           0x69435f024540bb51,
	"mpcoin/n=12/heal/after-cluster-consensus":               0x1b109950ac266005,
	"mpcoin/n=12/heal/after-exchange-decide-phase":           0xbe26dacee3d91e6b,
	"hybrid-local/n=1/uniform/crash-free":                    0x91d746e384d1885d,
	"hybrid-local/n=1/uniform/max-rounds-1":                  0x7f0eaa84c20ee265,
	"hybrid-local/n=1/skew/crash-free":                       0xe2f7f4e228e8fd35,
	"hybrid-local/n=1/skew/max-rounds-1":                     0xe2f7f4e228e8fd35,
	"hybrid-local/n=1/heal/crash-free":                       0x6649721d6ecce82d,
	"hybrid-local/n=1/heal/max-rounds-1":                     0x77d6309a1c19f01d,
	"hybrid-local/n=4/uniform/crash-free":                    0xc499609698b54319,
	"hybrid-local/n=4/uniform/max-rounds-1":                  0x8c2f7ec2fecd517c,
	"hybrid-local/n=4/uniform/max-steps-1":                   0xeb5c17856af0635d,
	"hybrid-local/n=4/uniform/max-steps-mid":                 0x90015657fa2ee0f1,
	"hybrid-local/n=4/uniform/max-virtual-time":              0xebb6fe29680ddc41,
	"hybrid-local/n=4/uniform/timed-minority":                0xd4fb56426d89a202,
	"hybrid-local/n=4/uniform/after-cluster-consensus":       0x03119416cee327ae,
	"hybrid-local/n=4/uniform/mid-broadcast-deliver-to":      0xc77f6c7d5c898042,
	"hybrid-local/n=4/uniform/mid-broadcast-random-subset":   0xc9f5c48c7cbd29fe,
	"hybrid-local/n=4/uniform/after-exchange":                0xe6c8c482ea6cee9a,
	"hybrid-local/n=4/uniform/after-exchange-decide-phase":   0x0e6326ae49a4714d,
	"hybrid-local/n=4/uniform/before-decide-partial":         0x6f71beeb376bd3fd,
	"hybrid-local/n=4/uniform/e2-majority":                   0x916b573d72f8127b,
	"hybrid-local/n=4/skew/crash-free":                       0xf68ec3be1232ce05,
	"hybrid-local/n=4/skew/max-rounds-1":                     0xf68ec3be1232ce05,
	"hybrid-local/n=4/skew/max-steps-1":                      0xdb9d3be9fc60f4a5,
	"hybrid-local/n=4/skew/max-steps-mid":                    0xda272a7252b53091,
	"hybrid-local/n=4/skew/max-virtual-time":                 0xf77d757f2b5d8501,
	"hybrid-local/n=4/skew/timed-minority":                   0x205b4f74e83c22ee,
	"hybrid-local/n=4/skew/after-cluster-consensus":          0x325eb3151b6b5dfc,
	"hybrid-local/n=4/skew/mid-broadcast-deliver-to":         0xa252e79b32bf1e8e,
	"hybrid-local/n=4/skew/mid-broadcast-random-subset":      0xb39f51b2c028c38a,
	"hybrid-local/n=4/skew/after-exchange":                   0xba4a3c140d699736,
	"hybrid-local/n=4/skew/after-exchange-decide-phase":      0x602a958f2f814ffb,
	"hybrid-local/n=4/skew/before-decide-partial":            0x241953e7afb32be1,
	"hybrid-local/n=4/skew/e2-majority":                      0xfdb69e78d407e74f,
	"hybrid-local/n=4/heal/crash-free":                       0x6ac64451b886bc95,
	"hybrid-local/n=4/heal/max-rounds-1":                     0x4d82a5cb6be42a41,
	"hybrid-local/n=4/heal/max-steps-1":                      0x59a100b55e3e2e95,
	"hybrid-local/n=4/heal/max-steps-mid":                    0xb1552f80216b6761,
	"hybrid-local/n=4/heal/max-virtual-time":                 0xf8c0d3bfd1930435,
	"hybrid-local/n=4/heal/timed-minority":                   0x6eaa828c888fb9d2,
	"hybrid-local/n=4/heal/after-cluster-consensus":          0x15d6cba491ef3436,
	"hybrid-local/n=4/heal/mid-broadcast-deliver-to":         0x24e4621453ec8e6a,
	"hybrid-local/n=4/heal/mid-broadcast-random-subset":      0xe867cb4362be942a,
	"hybrid-local/n=4/heal/after-exchange":                   0xa3c11fb02432c47e,
	"hybrid-local/n=4/heal/after-exchange-decide-phase":      0x722ca63a9ddbc6cd,
	"hybrid-local/n=4/heal/before-decide-partial":            0xc9d0e08bd7c62eed,
	"hybrid-local/n=4/heal/e2-majority":                      0x59223d7fa9fc0297,
	"hybrid-local/n=7/uniform/crash-free":                    0xced153635c1c89af,
	"hybrid-local/n=7/uniform/max-rounds-1":                  0xcf5804dbf7d60773,
	"hybrid-local/n=7/uniform/max-steps-1":                   0xab334e39988f8483,
	"hybrid-local/n=7/uniform/max-steps-mid":                 0x4eccf2f414d5cfef,
	"hybrid-local/n=7/uniform/max-virtual-time":              0x5f5b162c7448ac6e,
	"hybrid-local/n=7/uniform/timed-minority":                0xf62e4e020d6bf23c,
	"hybrid-local/n=7/uniform/after-cluster-consensus":       0x06fb741308e90bab,
	"hybrid-local/n=7/uniform/mid-broadcast-deliver-to":      0x34318077bcb54165,
	"hybrid-local/n=7/uniform/mid-broadcast-random-subset":   0x9ecc67513b31fe17,
	"hybrid-local/n=7/uniform/after-exchange":                0xe6c2f116a3155b27,
	"hybrid-local/n=7/uniform/after-exchange-decide-phase":   0x655b34aaa54b58a6,
	"hybrid-local/n=7/uniform/before-decide-partial":         0xf2b19c8ad3fb9816,
	"hybrid-local/n=7/uniform/e2-majority":                   0x734130c737e841ef,
	"hybrid-local/n=7/skew/crash-free":                       0x38903d626f5a1407,
	"hybrid-local/n=7/skew/max-rounds-1":                     0x38903d626f5a1407,
	"hybrid-local/n=7/skew/max-steps-1":                      0x5ff0229889f0c2c3,
	"hybrid-local/n=7/skew/max-steps-mid":                    0xf1ff1d068e3c6cc3,
	"hybrid-local/n=7/skew/max-virtual-time":                 0x77850be9035c098a,
	"hybrid-local/n=7/skew/timed-minority":                   0xa13c9fa6b7cc5a49,
	"hybrid-local/n=7/skew/after-cluster-consensus":          0xd6cba12cebd7d3a6,
	"hybrid-local/n=7/skew/mid-broadcast-deliver-to":         0x55bbfa71495765b4,
	"hybrid-local/n=7/skew/mid-broadcast-random-subset":      0x949d69fc5030ced8,
	"hybrid-local/n=7/skew/after-exchange":                   0x98d07e937fe3eeb7,
	"hybrid-local/n=7/skew/after-exchange-decide-phase":      0x53b347ba2066d5f1,
	"hybrid-local/n=7/skew/before-decide-partial":            0x97abfe3c4f8d5f3d,
	"hybrid-local/n=7/skew/e2-majority":                      0x11b24941de109705,
	"hybrid-local/n=7/heal/crash-free":                       0x7797c705bd70cd8f,
	"hybrid-local/n=7/heal/max-rounds-1":                     0x8b08f32318aacbff,
	"hybrid-local/n=7/heal/max-steps-1":                      0x2810bee7a3a1ff97,
	"hybrid-local/n=7/heal/max-steps-mid":                    0xcb8781f1972fa2a6,
	"hybrid-local/n=7/heal/max-virtual-time":                 0xb59dee392a899c12,
	"hybrid-local/n=7/heal/timed-minority":                   0x8e2eeb5f21e9b314,
	"hybrid-local/n=7/heal/after-cluster-consensus":          0x45114e86ec8bf7cf,
	"hybrid-local/n=7/heal/mid-broadcast-deliver-to":         0xa77133f95dec627c,
	"hybrid-local/n=7/heal/mid-broadcast-random-subset":      0x06d1c847c89752e5,
	"hybrid-local/n=7/heal/after-exchange":                   0xe3531852a7e53bef,
	"hybrid-local/n=7/heal/after-exchange-decide-phase":      0x53943bfbfc35780d,
	"hybrid-local/n=7/heal/before-decide-partial":            0x2c6f2f8e5a471990,
	"hybrid-local/n=7/heal/e2-majority":                      0x2f2395bd06aa422d,
	"hybrid-local/n=12/uniform/crash-free":                   0x5eb3c1654ebe8fa6,
	"hybrid-local/n=12/uniform/max-rounds-1":                 0xd25bf55042efd0f8,
	"hybrid-local/n=12/uniform/max-steps-1":                  0xab02b8dadd14678a,
	"hybrid-local/n=12/uniform/max-steps-mid":                0x8e6ffb208468bb3c,
	"hybrid-local/n=12/uniform/max-virtual-time":             0x225fddadb16094ed,
	"hybrid-local/n=12/uniform/timed-minority":               0xee81870ae8eb3d32,
	"hybrid-local/n=12/uniform/after-cluster-consensus":      0x31a5fe0ed215a68b,
	"hybrid-local/n=12/uniform/mid-broadcast-deliver-to":     0x6a3ebea52b2a0a25,
	"hybrid-local/n=12/uniform/mid-broadcast-random-subset":  0x694eb88aa79da674,
	"hybrid-local/n=12/uniform/after-exchange":               0x9503815bcc6a59c5,
	"hybrid-local/n=12/uniform/after-exchange-decide-phase":  0x659608ca5f31f672,
	"hybrid-local/n=12/uniform/before-decide-partial":        0x48e7daf171585f71,
	"hybrid-local/n=12/uniform/e2-majority":                  0x6e037007e81f79a9,
	"hybrid-local/n=12/skew/crash-free":                      0x7c92af85489edfd7,
	"hybrid-local/n=12/skew/max-rounds-1":                    0x7c92af85489edfd7,
	"hybrid-local/n=12/skew/max-steps-1":                     0x3208a459167e917e,
	"hybrid-local/n=12/skew/max-steps-mid":                   0x0fba85cec828f006,
	"hybrid-local/n=12/skew/max-virtual-time":                0x9b6f96d37a1b5cc4,
	"hybrid-local/n=12/skew/timed-minority":                  0xe64243bebde214b9,
	"hybrid-local/n=12/skew/after-cluster-consensus":         0x993fd716b0c60f0d,
	"hybrid-local/n=12/skew/mid-broadcast-deliver-to":        0xd0c5476aea895cb9,
	"hybrid-local/n=12/skew/mid-broadcast-random-subset":     0xcf772dbf0e54a79b,
	"hybrid-local/n=12/skew/after-exchange":                  0x16ef4b9b5d6a9835,
	"hybrid-local/n=12/skew/after-exchange-decide-phase":     0xaea2b39fea5fb461,
	"hybrid-local/n=12/skew/before-decide-partial":           0x3f4e5d61d0fdbe9b,
	"hybrid-local/n=12/skew/e2-majority":                     0xe65bc903ef0301b5,
	"hybrid-local/n=12/heal/crash-free":                      0x48abfc6238b40d0d,
	"hybrid-local/n=12/heal/max-rounds-1":                    0x5de5b38a309ea6ad,
	"hybrid-local/n=12/heal/max-steps-1":                     0x08e93e44e58f1aee,
	"hybrid-local/n=12/heal/max-steps-mid":                   0xabc0b6352663166e,
	"hybrid-local/n=12/heal/max-virtual-time":                0xecdd1e884e6047d1,
	"hybrid-local/n=12/heal/timed-minority":                  0x9044dc5d393a86d8,
	"hybrid-local/n=12/heal/after-cluster-consensus":         0x119a8efb8ff14931,
	"hybrid-local/n=12/heal/mid-broadcast-deliver-to":        0xe2963f2e13520085,
	"hybrid-local/n=12/heal/mid-broadcast-random-subset":     0x94576b67ad273d11,
	"hybrid-local/n=12/heal/after-exchange":                  0xffc1643401c586cc,
	"hybrid-local/n=12/heal/after-exchange-decide-phase":     0x710e4e60ab409b49,
	"hybrid-local/n=12/heal/before-decide-partial":           0x722d16a5e919b098,
	"hybrid-local/n=12/heal/e2-majority":                     0x5eca8511b44cdd09,
	"hybrid-common/n=1/uniform/crash-free":                   0x818017185c7d5c4d,
	"hybrid-common/n=1/uniform/max-rounds-1":                 0x736b5e43ba3a20b1,
	"hybrid-common/n=1/skew/crash-free":                      0xc3c196efe5df60d1,
	"hybrid-common/n=1/skew/max-rounds-1":                    0x459abf2aa416af5d,
	"hybrid-common/n=1/heal/crash-free":                      0x71a7bf6effd0bcb1,
	"hybrid-common/n=1/heal/max-rounds-1":                    0xc898883c5ea95961,
	"hybrid-common/n=4/uniform/crash-free":                   0xff806eb7014636b9,
	"hybrid-common/n=4/uniform/max-rounds-1":                 0x4e6f2dbc9eeb3663,
	"hybrid-common/n=4/uniform/max-steps-1":                  0x157aeb17736d2125,
	"hybrid-common/n=4/uniform/max-steps-mid":                0x2d7461b5b8bf5f91,
	"hybrid-common/n=4/uniform/max-virtual-time":             0xf8c0d3bfd1930435,
	"hybrid-common/n=4/uniform/timed-minority":               0x5373dcc67970dd38,
	"hybrid-common/n=4/uniform/after-cluster-consensus":      0x3af49492e98af1f2,
	"hybrid-common/n=4/uniform/mid-broadcast-deliver-to":     0x4257f8e7580f56ba,
	"hybrid-common/n=4/uniform/mid-broadcast-random-subset":  0xf8195535cb4c6fd9,
	"hybrid-common/n=4/uniform/after-exchange":               0x4ffcdc26c01e4dbb,
	"hybrid-common/n=4/uniform/after-exchange-decide-phase":  0x138a730dfc70691d,
	"hybrid-common/n=4/uniform/before-decide-partial":        0xd568a1c71dd863b1,
	"hybrid-common/n=4/uniform/e2-majority":                  0xadbbec39cd4c26d7,
	"hybrid-common/n=4/skew/crash-free":                      0xe1fc97e91a5e0ff9,
	"hybrid-common/n=4/skew/max-rounds-1":                    0xa5a44a1dd06b3cdd,
	"hybrid-common/n=4/skew/max-steps-1":                     0xdb9d3be9fc60f4a5,
	"hybrid-common/n=4/skew/max-steps-mid":                   0xda272a7252b53091,
	"hybrid-common/n=4/skew/max-virtual-time":                0xf77d757f2b5d8501,
	"hybrid-common/n=4/skew/timed-minority":                  0x5c0f637153056acb,
	"hybrid-common/n=4/skew/after-cluster-consensus":         0x527af32db9b43167,
	"hybrid-common/n=4/skew/mid-broadcast-deliver-to":        0x8453846ecc9de583,
	"hybrid-common/n=4/skew/mid-broadcast-random-subset":     0x39fcdcf2d3d3bfc1,
	"hybrid-common/n=4/skew/after-exchange":                  0xca13450868e2b736,
	"hybrid-common/n=4/skew/after-exchange-decide-phase":     0xf38f20b380aec887,
	"hybrid-common/n=4/skew/before-decide-partial":           0xe1625b28999b7b3b,
	"hybrid-common/n=4/skew/e2-majority":                     0xfdb69e78d407e74f,
	"hybrid-common/n=4/heal/crash-free":                      0xd6c0c1218a2db371,
	"hybrid-common/n=4/heal/max-rounds-1":                    0x50095c0285ec8975,
	"hybrid-common/n=4/heal/max-steps-1":                     0x478c54c65fac61ad,
	"hybrid-common/n=4/heal/max-steps-mid":                   0x456deb2389d8c7b1,
	"hybrid-common/n=4/heal/max-virtual-time":                0xae8927fe1992c821,
	"hybrid-common/n=4/heal/timed-minority":                  0xa2df0ba34cce6708,
	"hybrid-common/n=4/heal/after-cluster-consensus":         0x8d4457c800349425,
	"hybrid-common/n=4/heal/mid-broadcast-deliver-to":        0x74ac94c3a2ba8467,
	"hybrid-common/n=4/heal/mid-broadcast-random-subset":     0xda0ddd611e59cfd3,
	"hybrid-common/n=4/heal/after-exchange":                  0x5fab9d9306e3f38b,
	"hybrid-common/n=4/heal/after-exchange-decide-phase":     0x8159be8703adbc03,
	"hybrid-common/n=4/heal/before-decide-partial":           0x1766024c980487dd,
	"hybrid-common/n=4/heal/e2-majority":                     0x630f9d496c2660f7,
	"hybrid-common/n=7/uniform/crash-free":                   0x2fdc639d5128dfb7,
	"hybrid-common/n=7/uniform/max-rounds-1":                 0xe0ea8277765ace6b,
	"hybrid-common/n=7/uniform/max-steps-1":                  0x4b06aded466cbe97,
	"hybrid-common/n=7/uniform/max-steps-mid":                0x107b82e074ccbe07,
	"hybrid-common/n=7/uniform/max-virtual-time":             0xf3b5216ba4460daa,
	"hybrid-common/n=7/uniform/timed-minority":               0xe6c545b50a2436b5,
	"hybrid-common/n=7/uniform/after-cluster-consensus":      0x9fe456630d94ee5b,
	"hybrid-common/n=7/uniform/mid-broadcast-deliver-to":     0x67335d9354800f07,
	"hybrid-common/n=7/uniform/mid-broadcast-random-subset":  0x3b02c5fdeff7861e,
	"hybrid-common/n=7/uniform/after-exchange":               0x07e1bd49e02a1ca3,
	"hybrid-common/n=7/uniform/after-exchange-decide-phase":  0xa3a0e7a3b8899c4d,
	"hybrid-common/n=7/uniform/before-decide-partial":        0xdd81ab230d9f6763,
	"hybrid-common/n=7/uniform/e2-majority":                  0x9e3661271c9b3f69,
	"hybrid-common/n=7/skew/crash-free":                      0x97f1d12c8a8570f1,
	"hybrid-common/n=7/skew/max-rounds-1":                    0x97f1d12c8a8570f1,
	"hybrid-common/n=7/skew/max-steps-1":                     0x5ff0229889f0c2c3,
	"hybrid-common/n=7/skew/max-steps-mid":                   0x20be39365b65fdb3,
	"hybrid-common/n=7/skew/max-virtual-time":                0x1436edd8ebddb22d,
	"hybrid-common/n=7/skew/timed-minority":                  0x84c308ea02ffbaa5,
	"hybrid-common/n=7/skew/after-cluster-consensus":         0x63da24d4dc626bff,
	"hybrid-common/n=7/skew/mid-broadcast-deliver-to":        0x826c799a78696b55,
	"hybrid-common/n=7/skew/mid-broadcast-random-subset":     0x7683d1606ef3d037,
	"hybrid-common/n=7/skew/after-exchange":                  0x1b552d463b76a644,
	"hybrid-common/n=7/skew/after-exchange-decide-phase":     0x43cf64296716c057,
	"hybrid-common/n=7/skew/before-decide-partial":           0x46a58607933e5eeb,
	"hybrid-common/n=7/skew/e2-majority":                     0x4a6a8a1f2cb5f7af,
	"hybrid-common/n=7/heal/crash-free":                      0xd8835b04a59b9680,
	"hybrid-common/n=7/heal/max-rounds-1":                    0xcbddb505e0eafe99,
	"hybrid-common/n=7/heal/max-steps-1":                     0x6ce91b010848ca5f,
	"hybrid-common/n=7/heal/max-steps-mid":                   0x6d0893d578ee536e,
	"hybrid-common/n=7/heal/max-virtual-time":                0x89fa86b93299a82b,
	"hybrid-common/n=7/heal/timed-minority":                  0x5fbe5257e93e13f9,
	"hybrid-common/n=7/heal/after-cluster-consensus":         0x74f3e2a5c6ebafe7,
	"hybrid-common/n=7/heal/mid-broadcast-deliver-to":        0xa71bb002b8f1aa25,
	"hybrid-common/n=7/heal/mid-broadcast-random-subset":     0x1da7b74455e61ffb,
	"hybrid-common/n=7/heal/after-exchange":                  0xd4f96fe4525bab77,
	"hybrid-common/n=7/heal/after-exchange-decide-phase":     0xc8fa693adbb7d433,
	"hybrid-common/n=7/heal/before-decide-partial":           0xacdfb9a0586ebba7,
	"hybrid-common/n=7/heal/e2-majority":                     0xfc4626156f1bb6af,
	"hybrid-common/n=12/uniform/crash-free":                  0x8f87234063647cd6,
	"hybrid-common/n=12/uniform/max-rounds-1":                0x7d7dc87470268a56,
	"hybrid-common/n=12/uniform/max-steps-1":                 0x28ccc6046ea934fe,
	"hybrid-common/n=12/uniform/max-steps-mid":               0x7c785d293d43c1f3,
	"hybrid-common/n=12/uniform/max-virtual-time":            0xa89d6c0bb98453cc,
	"hybrid-common/n=12/uniform/timed-minority":              0xd6c2d854618fca66,
	"hybrid-common/n=12/uniform/after-cluster-consensus":     0xb00d71aa9476900f,
	"hybrid-common/n=12/uniform/mid-broadcast-deliver-to":    0x995658abcb5b3cc0,
	"hybrid-common/n=12/uniform/mid-broadcast-random-subset": 0x1bf3fdf9497707f2,
	"hybrid-common/n=12/uniform/after-exchange":              0x8f464769e380e2ae,
	"hybrid-common/n=12/uniform/after-exchange-decide-phase": 0x8d6125ecc0d92cb2,
	"hybrid-common/n=12/uniform/before-decide-partial":       0xcf03f627a04bd55a,
	"hybrid-common/n=12/uniform/e2-majority":                 0xbd3ab1ca708a56c9,
	"hybrid-common/n=12/skew/crash-free":                     0x0d795990b5bad2c2,
	"hybrid-common/n=12/skew/max-rounds-1":                   0x0d795990b5bad2c2,
	"hybrid-common/n=12/skew/max-steps-1":                    0x3208a459167e917e,
	"hybrid-common/n=12/skew/max-steps-mid":                  0x87763d23e7c30b18,
	"hybrid-common/n=12/skew/max-virtual-time":               0x9b6f96d37a1b5cc4,
	"hybrid-common/n=12/skew/timed-minority":                 0xf3ed6d151055a2b1,
	"hybrid-common/n=12/skew/after-cluster-consensus":        0x99ca123518c496b3,
	"hybrid-common/n=12/skew/mid-broadcast-deliver-to":       0x36b2692525938588,
	"hybrid-common/n=12/skew/mid-broadcast-random-subset":    0xfce2594f4d3ef0b8,
	"hybrid-common/n=12/skew/after-exchange":                 0x6c99d3f9e112b314,
	"hybrid-common/n=12/skew/after-exchange-decide-phase":    0x6c99d3f9e112b314,
	"hybrid-common/n=12/skew/before-decide-partial":          0x0bb4f8f47a45951e,
	"hybrid-common/n=12/skew/e2-majority":                    0xe65bc903ef0301b5,
	"hybrid-common/n=12/heal/crash-free":                     0x8130e3e62b74703e,
	"hybrid-common/n=12/heal/max-rounds-1":                   0x92c6cc47ba8188d8,
	"hybrid-common/n=12/heal/max-steps-1":                    0xcbf0e0cd679f5eee,
	"hybrid-common/n=12/heal/max-steps-mid":                  0xa9acbe2b98d6da07,
	"hybrid-common/n=12/heal/max-virtual-time":               0xf6ce62d8b70c04ce,
	"hybrid-common/n=12/heal/timed-minority":                 0x78f0c2fbb7ce3611,
	"hybrid-common/n=12/heal/after-cluster-consensus":        0xdfde94cd032d2eaf,
	"hybrid-common/n=12/heal/mid-broadcast-deliver-to":       0xd04c37bb6889c9b5,
	"hybrid-common/n=12/heal/mid-broadcast-random-subset":    0x44bd6658cab4b455,
	"hybrid-common/n=12/heal/after-exchange":                 0xc9f5dd6f4b97f34a,
	"hybrid-common/n=12/heal/after-exchange-decide-phase":    0x75d5434c60122d09,
	"hybrid-common/n=12/heal/before-decide-partial":          0x4b67558cff704b30,
	"hybrid-common/n=12/heal/e2-majority":                    0x73588f778c0ac709,
}

// baselineProtocols are the table's rows: the registry protocol and
// algorithm a cell runs, the phase it decides in, and its topology at n ∈
// {1, 4, 7, 12}. The message-passing baselines run on n bare processes; the
// hybrid algorithms on one singleton, two clusters of two, Figure 1's right
// partition (clusters of 1, 4 and 2) and three clusters of four.
var baselineProtocols = []baselineRow{
	{"benor", ProtocolBenOr, "", 2, flatTopology, midCut{squareSteps, 100 * time.Microsecond}},
	{"mpcoin", ProtocolMPCoin, "", 1, flatTopology, midCut{squareSteps, 100 * time.Microsecond}},
	{"hybrid-local", ProtocolHybrid, AlgoLocalCoin, 2, hybridTopology, midCut{linearSteps, 20 * time.Microsecond}},
	{"hybrid-common", ProtocolHybrid, AlgoCommonCoin, 1, hybridTopology, midCut{linearSteps, 20 * time.Microsecond}},
}

type baselineRow struct {
	name, protocol, algorithm string
	decidePhase               int
	topology                  func(t *testing.T, n int) Topology
	mid                       midCut
}

// midCut places a row's step and virtual-time bounds inside its first
// exchanges. The one-for-all exit closes a hybrid exchange after a handful
// of deliveries, so the hybrid rows cut at n steps and 20 µs where the
// baselines cut at n² steps and 100 µs.
type midCut struct {
	steps func(n int) int64
	time  time.Duration
}

func squareSteps(n int) int64 { return int64(n * n) }
func linearSteps(n int) int64 { return int64(n) }

func flatTopology(_ *testing.T, n int) Topology { return Topology{N: n} }

func hybridTopology(t *testing.T, n int) Topology {
	t.Helper()
	switch n {
	case 1:
		return Topology{Partition: Singletons(1)}
	case 7:
		return Topology{Partition: Fig1Right()}
	}
	part, err := Blocks(n, map[int]int{4: 2, 12: 3}[n])
	if err != nil {
		t.Fatal(err)
	}
	return Topology{Partition: part}
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
// crash, everyone but one process at the top of round 1: the survivor decides
// iff its cluster covers a majority, and otherwise blocks forever. The staged
// points sit in round 1; decidePhase is the phase a protocol decides in. A
// protocol without cluster consensus crashes an after-cluster-consensus
// victim at its next step point.
var baselineCrashes = []struct {
	name      string
	everyN    bool                           // also runs at n = 1
	unanimous bool                           // all propose One (the cell must reach a decision point)
	bounds    func(n int, mid midCut) Bounds // nil: MaxRounds 10 000
	build     func(t *testing.T, n, decidePhase int) *Schedule
}{
	{name: "crash-free", everyN: true},
	{name: "max-rounds-1", everyN: true, bounds: func(int, midCut) Bounds { return Bounds{MaxRounds: 1} }},
	{name: "max-steps-1", bounds: func(int, midCut) Bounds { return Bounds{MaxRounds: 10_000, MaxSteps: 1} }},
	{name: "max-steps-mid", bounds: func(n int, mid midCut) Bounds { return Bounds{MaxRounds: 10_000, MaxSteps: mid.steps(n)} }},
	{name: "max-virtual-time", bounds: func(_ int, mid midCut) Bounds { return Bounds{MaxRounds: 10_000, MaxVirtualTime: mid.time} }},
	{name: "timed-minority", build: func(t *testing.T, n, _ int) *Schedule {
		sched := NewSchedule(n)
		for k := 0; k < (n-1)/2; k++ {
			if err := sched.SetTimed(ProcID(2*k+1), time.Duration(k+1)*37*time.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
		return sched
	}},
	{name: "after-cluster-consensus", build: stagedMinority(1, StageAfterClusterConsensus, nil)},
	{name: "mid-broadcast-deliver-to", build: stagedMinority(1, StageMidBroadcast, func(n int) []ProcID {
		return []ProcID{ProcID(n - 1), ProcID(n / 2), 0}
	})},
	{name: "mid-broadcast-random-subset", build: stagedMinority(1, StageMidBroadcast, nil)},
	{name: "after-exchange", build: stagedMinority(1, StageAfterExchange, nil)},
	{name: "after-exchange-decide-phase", build: stagedMinority(0, StageAfterExchange, nil)},
	{name: "before-decide-partial", unanimous: true, build: stagedMinority(0, StageBeforeDecide, func(n int) []ProcID {
		return []ProcID{ProcID(n - 1)}
	})},
	{name: "e2-majority", build: func(t *testing.T, n, _ int) *Schedule {
		sched, err := CrashAllExcept(n, CrashPoint{Round: 1, Phase: 1, Stage: StageRoundStart}, e2Survivor(n))
		if err != nil {
			t.Fatal(err)
		}
		return sched
	}},
}

// e2Survivor is the one process the e2-majority pattern leaves alive.
func e2Survivor(n int) ProcID { return ProcID(min(2, n-1)) }

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

// TestBaselineOutcomeGolden holds the binary round machines to their
// recorded Outcomes at n ∈ {1, 4, 7, 12}, under every profile and failure
// pattern above.
func TestBaselineOutcomeGolden(t *testing.T) {
	t.Parallel()
	for _, proto := range baselineProtocols {
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
						Protocol:  proto.protocol,
						Algorithm: proto.algorithm,
						Topology:  proto.topology(t, n),
						Workload:  Workload{Binary: props},
						Profile:   prof.build(n),
						Seed:      int64(h.Sum64() >> 1),
						Bounds:    Bounds{MaxRounds: 10_000},
					}
					if cr.build != nil {
						sc.Faults = cr.build(t, n, proto.decidePhase)
					}
					if cr.bounds != nil {
						sc.Bounds = cr.bounds(n, proto.mid)
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
// under a round cap — every undecided live process stopped at the cap. In a
// majority-crash cell the survivor must decide if its cluster covers a
// majority, and the run must otherwise quiesce with nobody decided. A cell
// with a step or virtual-time bound must instead be cut by it.
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
		part := sc.Topology.Partition
		covered := part != nil && part.Cluster(e2Survivor(len(out.Procs))).IsMajority()
		if _, _, decided := out.Decided(); covered != (decided && out.AllLiveDecided()) || !covered && !out.Quiesced {
			t.Fatalf("%s: survivor's cluster covers a majority = %v, but quiesced %v, %+v", name, covered, out.Quiesced, out.Procs)
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
