package main

import (
	"reflect"
	"testing"
)

func TestSameSeedSameOps(t *testing.T) {
	const n = 64
	for _, gen := range []func(uint64, int) batchOp{table1Op, recoverOp} {
		for i := 0; i < n; i++ {
			if a, b := gen(7, i), gen(7, i); !reflect.DeepEqual(a, b) {
				t.Fatalf("op %d differs for the same seed: %+v vs %+v", i, a, b)
			}
		}
		if reflect.DeepEqual(gen(7, 3), gen(8, 3)) {
			t.Errorf("seeds 7 and 8 give the same op 3")
		}
	}
	for i := 0; i < n; i++ {
		s1, h1 := serviceOp(7, i)
		s2, h2 := serviceOp(7, i)
		if s1 != s2 || h1 != h2 {
			t.Fatalf("service op %d differs for the same seed", i)
		}
	}
}

func TestRecoverPassesCoverThePool(t *testing.T) {
	n := len(recoverPool)
	for pass := 0; pass < 4; pass++ {
		seen := map[[2]uint64]bool{}
		msgs := map[uint64]bool{}
		for i := pass * n; i < (pass+1)*n; i++ {
			op := recoverOp(3, i)
			seen[[2]uint64{op.EncSeed, op.DevSeed}] = true
			msgs[op.MsgSeed] = true
		}
		if len(seen) != n || len(msgs) != n {
			t.Errorf("pass %d covers %d pool entries with %d plaintexts, want %d", pass, len(seen), len(msgs), n)
		}
	}
}

func TestServiceTemplateMix(t *testing.T) {
	warm := map[uint64]bool{}
	for _, s := range serviceWarmSeeds {
		warm[s] = true
	}
	fresh := map[uint64]bool{}
	for block := 0; block < 50; block++ {
		misses := 0
		for i := block * serviceFreshEvery; i < (block+1)*serviceFreshEvery; i++ {
			seed, hit := serviceOp(11, i)
			if hit != warm[seed] {
				t.Fatalf("op %d: seed %d planned hit=%v", i, seed, hit)
			}
			if !hit {
				misses++
				if fresh[seed] {
					t.Fatalf("op %d reuses fresh seed %d", i, seed)
				}
				fresh[seed] = true
			}
		}
		if misses != 1 {
			t.Errorf("block %d has %d fresh seeds, want 1", block, misses)
		}
	}
}
