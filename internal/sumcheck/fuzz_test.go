package sumcheck

import (
	"fmt"
	"math/rand"
	"testing"

	"zkspeed/internal/ff"
	"zkspeed/internal/poly"
	"zkspeed/internal/transcript"
)

// shapeBytes hands out the fuzzer's shape choices one byte at a time,
// zeros once exhausted.
type shapeBytes []byte

func (s *shapeBytes) next(n int) int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b) % n
}

// FuzzSumcheckSources draws virtual polynomials mixing every kind of
// source ProveWith handles without a table — per-term eq factors with
// coordinates from {0, 1, random} (so Boolean suffixes, shared suffixes
// and the directly computed h(1) of a zero t all occur), affine factors,
// plain tables, repeated and shared indices, constant terms — and requires
// ProveWith to reproduce ProveReference byte for byte.
func FuzzSumcheckSources(f *testing.F) {
	f.Add(uint8(3), int64(1), []byte{2, 1, 2, 4, 1, 2, 0, 1, 3, 1, 1, 2, 2})
	f.Add(uint8(5), int64(2), []byte{3, 2, 3, 2, 0, 1, 2, 0, 1, 2, 3, 5, 0, 2, 1, 1, 2, 0, 3, 3, 1})
	f.Add(uint8(1), int64(3), []byte{0, 0, 1, 1, 1, 1})
	f.Add(uint8(0), int64(4), []byte{1, 1, 1, 2})
	f.Fuzz(func(t *testing.T, muB uint8, seed int64, shape []byte) {
		mu := int(muB % 7)
		rng := rand.New(rand.NewSource(seed))
		s := shapeBytes(shape)
		nTab, nAff, nEq := 1+s.next(4), s.next(3), s.next(4)
		tables := make([]*poly.MLE, nTab)
		for k := range tables {
			tables[k] = randMLE(rng, mu)
		}
		affines := make([]poly.Affine, nAff)
		for k := range affines {
			a := poly.Affine{W: randMLE(rng, mu), Scale: randFr(rng), Shift: randFr(rng), Offset: uint64(rng.Intn(1 << 20))}
			if s.next(2) == 1 {
				a.S = randMLE(rng, mu)
			}
			affines[k] = a
		}
		points := make([][]ff.Fr, nEq)
		for e := range points {
			pt := make([]ff.Fr, mu)
			for i := range pt {
				switch s.next(3) {
				case 1:
					pt[i].SetOne()
				case 2:
					pt[i] = randFr(rng)
				}
			}
			if e > 0 && mu > 0 && s.next(3) == 0 {
				copy(pt[1:], points[e-1][1:]) // equal past x_1
			}
			points[e] = pt
		}
		type term struct {
			coeff ff.Fr
			idx   []int // into tables ‖ affines ‖ eq points
		}
		terms := make([]term, 1+s.next(6))
		// A term with two eq factors is legal but sends every factor down
		// the materialized path, so only the first term may draw one.
		twoEq := s.next(4) == 0
		for ti := range terms {
			tm := &terms[ti]
			tm.coeff = ff.FrOne()
			if s.next(2) == 1 {
				tm.coeff = randFr(rng)
			}
			for x := s.next(4); x > 0; x-- {
				tm.idx = append(tm.idx, s.next(nTab+nAff))
			}
			if e := s.next(nEq + 1); e > 0 {
				tm.idx = append(tm.idx, nTab+nAff+e-1)
			}
			if ti == 0 && twoEq && nEq > 0 {
				tm.idx = append(tm.idx, nTab+nAff+s.next(nEq))
			}
		}
		build := func() *VirtualPoly {
			vp := NewVirtualPoly(mu)
			for _, m := range tables {
				vp.AddMLE(m.Clone())
			}
			for _, a := range affines {
				vp.AddAffineMLE(a)
			}
			for _, pt := range points {
				vp.AddEqMLE(pt)
			}
			for _, tm := range terms {
				vp.AddTerm(tm.coeff, tm.idx...)
			}
			return vp
		}
		want := ProveReference(build(), transcript.New("fuzz"))
		for _, opt := range []poly.Options{{Procs: 1}, {Procs: 3, Scratch: poly.NewScratch()}} {
			got := ProveWith(build(), transcript.New("fuzz"), opt)
			equalResults(t, fmt.Sprintf("procs%d", opt.Procs), got, want)
		}
	})
}
