package kbest

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// pair is one offered (id, score).
type pair struct {
	id    int32
	score float64
}

// fullSort is the reference selection: sort every pair by score desc,
// id asc, and keep the first k.
func fullSort(ps []pair, k int) []pair {
	ref := slices.Clone(ps)
	sort.Slice(ref, func(a, b int) bool {
		if ref[a].score != ref[b].score {
			return ref[a].score > ref[b].score
		}
		return ref[a].id < ref[b].id
	})
	if k < len(ref) {
		ref = ref[:k]
	}
	return ref
}

// TestHeapMatchesFullSort checks the heap against the full-sort
// reference on rows of every length up to 300 whose scores sit on a few
// levels, so exact ties are common and −0 ties +0. One heap serves every
// row and k, so Reset must fully clear the previous row. When k < n one
// pair past the first k carries a NaN score: offered to a full heap it
// must be rejected, so the reference leaves it out.
func TestHeapMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	levels := []float64{math.Copysign(0, -1), 0, -1, 0.25, 0.5, 1, 3}
	var h Heap
	for n := 0; n <= 300; n++ {
		for _, k := range []int{1, 2, n / 2, n - 1, n, n + 3} {
			if k < 1 {
				continue
			}
			ps := make([]pair, n)
			for c, id := range rng.Perm(4 * (n + 1))[:n] {
				ps[c] = pair{int32(id), levels[rng.Intn(len(levels))]}
			}
			stream := slices.Clone(ps)
			if k < n {
				p := k + rng.Intn(n-k)
				stream[p].score = math.NaN()
				ps = slices.Delete(ps, p, p+1)
			}
			want := fullSort(ps, k)

			h.Reset(k)
			for _, p := range stream {
				h.Offer(p.id, p.score)
			}
			members := slices.Clone(h.Members())
			wantIDs := make([]int32, len(want))
			for c, p := range want {
				wantIDs[c] = p.id
			}
			slices.Sort(members)
			slices.Sort(wantIDs)
			if !slices.Equal(members, wantIDs) {
				t.Fatalf("n=%d k=%d: members %v, full sort %v", n, k, members, wantIDs)
			}

			idx := make([]int32, len(want))
			score := make([]float64, len(want))
			h.Drain(idx, score)
			for c, p := range want {
				if idx[c] != p.id || math.Float64bits(score[c]) != math.Float64bits(p.score) {
					t.Fatalf("n=%d k=%d: drained entry %d is (%d, %v), full sort (%d, %v)", n, k, c, idx[c], score[c], p.id, p.score)
				}
			}
		}
	}
}

// TestHeapZeroK checks a zero-capacity heap keeps nothing.
func TestHeapZeroK(t *testing.T) {
	var h Heap
	h.Reset(0)
	for j, v := range []float64{1, math.Inf(1), 0, math.NaN()} {
		h.Offer(int32(j), v)
	}
	if got := h.Members(); len(got) != 0 {
		t.Fatalf("k=0 heap kept %v", got)
	}
}
