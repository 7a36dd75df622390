package model

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Partition is the cluster decomposition of Π: m non-empty, pairwise
// disjoint subsets P[0] … P[m-1] whose union is {0 … n-1} (paper §II-A).
// Every process knows the whole partition; the function Cluster mirrors the
// paper's cluster(i) primitive.
//
// A Partition is immutable after construction and safe for concurrent use.
type Partition struct {
	n         int
	clusterOf []ClusterID // process index -> cluster id
	members   [][]ProcID  // cluster id -> sorted member ids
	closure   []*ProcSet  // cluster id -> member bitset (the one-for-all closure)
}

// Errors returned by partition constructors.
var (
	ErrEmptyPartition = errors.New("model: partition has no clusters")
	ErrEmptyCluster   = errors.New("model: cluster is empty")
	ErrNotPartition   = errors.New("model: clusters do not partition the process set")
)

// NewPartition builds a partition from explicit member lists, given as
// 0-based process indexes. It validates the partition laws: every cluster
// non-empty, clusters pairwise disjoint, and their union exactly
// {0 … n-1} where n is the total member count.
func NewPartition(clusters [][]int) (*Partition, error) {
	if len(clusters) == 0 {
		return nil, ErrEmptyPartition
	}
	n := 0
	for _, c := range clusters {
		if len(c) == 0 {
			return nil, ErrEmptyCluster
		}
		n += len(c)
	}
	p := &Partition{
		n:         n,
		clusterOf: make([]ClusterID, n),
		members:   make([][]ProcID, len(clusters)),
		closure:   make([]*ProcSet, len(clusters)),
	}
	seen := make([]bool, n)
	for x, c := range clusters {
		ms := make([]ProcID, 0, len(c))
		set := NewProcSet(n)
		for _, raw := range c {
			if raw < 0 || raw >= n {
				return nil, fmt.Errorf("%w: process index %d out of range [0,%d)", ErrNotPartition, raw, n)
			}
			if seen[raw] {
				return nil, fmt.Errorf("%w: process %s appears twice", ErrNotPartition, ProcID(raw))
			}
			seen[raw] = true
			ms = append(ms, ProcID(raw))
			set.Add(ProcID(raw))
			p.clusterOf[raw] = ClusterID(x)
		}
		sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
		p.members[x] = ms
		p.closure[x] = set
	}
	// seen is all-true by construction: n indexes, n distinct in-range values.
	return p, nil
}

// MustPartition is NewPartition for statically known-good literals; it
// panics on invalid input and is intended for tests and examples.
func MustPartition(clusters [][]int) *Partition {
	p, err := NewPartition(clusters)
	if err != nil {
		panic(err)
	}
	return p
}

// Singletons returns the m = n decomposition: one process per cluster.
// The hybrid model then degenerates to the classical message-passing model
// and Algorithm 2 boils down to Ben-Or's algorithm (paper §II-A, §III-B).
func Singletons(n int) *Partition {
	cs := make([][]int, n)
	for i := range cs {
		cs[i] = []int{i}
	}
	return MustPartition(cs)
}

// SingleCluster returns the m = 1 decomposition: all processes in one
// cluster. The model then degenerates to the classical shared-memory model
// and the message-passing facility is useless (paper §II-A).
func SingleCluster(n int) *Partition {
	c := make([]int, n)
	for i := range c {
		c[i] = i
	}
	return MustPartition([][]int{c})
}

// Blocks returns a decomposition of n processes into m contiguous clusters
// of near-equal size (the first n mod m clusters get the extra process).
func Blocks(n, m int) (*Partition, error) {
	if m < 1 || m > n {
		return nil, fmt.Errorf("%w: cannot split %d processes into %d clusters", ErrNotPartition, n, m)
	}
	cs := make([][]int, m)
	base, extra := n/m, n%m
	next := 0
	for x := 0; x < m; x++ {
		size := base
		if x < extra {
			size++
		}
		c := make([]int, size)
		for i := range c {
			c[i] = next
			next++
		}
		cs[x] = c
	}
	return NewPartition(cs)
}

// Fig1Left is the left decomposition of the paper's Figure 1:
// n = 7, m = 3, P[1] = {p1,p2,p3}, P[2] = {p4,p5}, P[3] = {p6,p7}.
func Fig1Left() *Partition {
	return MustPartition([][]int{{0, 1, 2}, {3, 4}, {5, 6}})
}

// Fig1Right is the right decomposition of the paper's Figure 1:
// n = 7, m = 3, P[1] = {p1}, P[2] = {p2,p3,p4,p5}, P[3] = {p6,p7}.
// P[2] is a majority cluster: consensus survives any failure pattern that
// leaves one P[2] process alive.
func Fig1Right() *Partition {
	return MustPartition([][]int{{0}, {1, 2, 3, 4}, {5, 6}})
}

// MaxParseProcs bounds the process count a Parse spec may describe: a
// range like "1-999999999" would otherwise materialize gigabytes of
// member indexes before the partition laws could reject it (found by
// FuzzParse). Simulations near this scale should build partitions
// programmatically (Blocks, NewPartition).
const MaxParseProcs = 1 << 20

// Parse builds a partition from a compact 1-based spec such as
// "1-3/4-5/6-7" (Figure 1 left) or "1/2-5/6,7". Clusters are separated by
// '/'; inside a cluster, ',' separates items and 'a-b' denotes a closed
// range.
func Parse(spec string) (*Partition, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, ErrEmptyPartition
	}
	total := 0
	var clusters [][]int
	for _, cl := range strings.Split(spec, "/") {
		var members []int
		for _, item := range strings.Split(cl, ",") {
			item = strings.TrimSpace(item)
			if item == "" {
				continue
			}
			if lo, hi, ok := strings.Cut(item, "-"); ok {
				a, err := strconv.Atoi(strings.TrimSpace(lo))
				if err != nil {
					return nil, fmt.Errorf("model: bad range start %q: %w", lo, err)
				}
				b, err := strconv.Atoi(strings.TrimSpace(hi))
				if err != nil {
					return nil, fmt.Errorf("model: bad range end %q: %w", hi, err)
				}
				if b < a {
					return nil, fmt.Errorf("model: inverted range %q", item)
				}
				// Check the span before accumulating: a and b are non-negative
				// (a leading '-' splits the range earlier and fails Atoi), so
				// b-a cannot overflow, but b-a+1 and the running total could.
				if b-a >= MaxParseProcs {
					return nil, fmt.Errorf("model: spec describes more than %d processes", MaxParseProcs)
				}
				if total += b - a + 1; total > MaxParseProcs {
					return nil, fmt.Errorf("model: spec describes more than %d processes", MaxParseProcs)
				}
				for v := a; v <= b; v++ {
					members = append(members, v-1) // spec is 1-based
				}
			} else {
				v, err := strconv.Atoi(item)
				if err != nil {
					return nil, fmt.Errorf("model: bad process index %q: %w", item, err)
				}
				members = append(members, v-1)
			}
		}
		if len(members) == 0 {
			return nil, ErrEmptyCluster
		}
		clusters = append(clusters, members)
	}
	return NewPartition(clusters)
}

// N returns the total number of processes.
func (p *Partition) N() int { return p.n }

// M returns the number of clusters.
func (p *Partition) M() int { return len(p.members) }

// ClusterOf returns the id of the cluster containing process i.
func (p *Partition) ClusterOf(i ProcID) ClusterID { return p.clusterOf[i] }

// Members returns the sorted member list of cluster x. The returned slice
// is shared and must not be mutated.
func (p *Partition) Members(x ClusterID) []ProcID { return p.members[x] }

// Cluster mirrors the paper's cluster(i): the set of processes composing
// the cluster to which p_i belongs, as a shared bitset. Callers must treat
// the result as read-only.
func (p *Partition) Cluster(i ProcID) *ProcSet { return p.closure[p.clusterOf[i]] }

// Size returns |P[x]|.
func (p *Partition) Size(x ClusterID) int { return len(p.members[x]) }

// Sizes returns the list of cluster sizes, indexed by cluster id.
func (p *Partition) Sizes() []int {
	out := make([]int, len(p.members))
	for x := range p.members {
		out[x] = len(p.members[x])
	}
	return out
}

// MajorityCluster returns the id of a cluster with |P[x]| > n/2 and true,
// or 0 and false if no cluster holds a strict majority of processes.
func (p *Partition) MajorityCluster() (ClusterID, bool) {
	for x := range p.members {
		if 2*len(p.members[x]) > p.n {
			return ClusterID(x), true
		}
	}
	return 0, false
}

// LivenessHolds evaluates the paper's termination condition (§III-B) for a
// failure pattern given as the set of processes that eventually crash:
// there must exist clusters, each with at least one surviving process,
// whose sizes sum to more than n/2. Equivalently, summing |P[x]| over all
// clusters with a survivor must exceed n/2.
func (p *Partition) LivenessHolds(crashed *ProcSet) bool {
	covered := 0
	for _, ms := range p.members {
		for _, pid := range ms {
			if crashed == nil || !crashed.Contains(pid) {
				covered += len(ms)
				break
			}
		}
	}
	return 2*covered > p.n
}

// String renders the partition in the paper's style, e.g.
// "P[1]={p1,p2,p3} P[2]={p4,p5} P[3]={p6,p7}".
func (p *Partition) String() string {
	var b strings.Builder
	for x := range p.members {
		if x > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", ClusterID(x), p.closure[x])
	}
	return b.String()
}

// Spec renders the partition as a string accepted by Parse, e.g.
// "1-3/4-5/6-7".
func (p *Partition) Spec() string {
	var b strings.Builder
	for x, ms := range p.members {
		if x > 0 {
			b.WriteByte('/')
		}
		// Render maximal runs as ranges.
		i := 0
		for i < len(ms) {
			j := i
			for j+1 < len(ms) && ms[j+1] == ms[j]+1 {
				j++
			}
			if i > 0 {
				b.WriteByte(',')
			}
			if j > i {
				fmt.Fprintf(&b, "%d-%d", int(ms[i])+1, int(ms[j])+1)
			} else {
				fmt.Fprintf(&b, "%d", int(ms[i])+1)
			}
			i = j + 1
		}
	}
	return b.String()
}
