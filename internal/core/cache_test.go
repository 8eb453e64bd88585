package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTemplateCacheKeyStability(t *testing.T) {
	opts := DefaultProfileOptions()
	k1 := TemplateCacheKey(NewDevice(1), opts)
	k2 := TemplateCacheKey(NewDevice(1), opts)
	if k1 != k2 {
		t.Fatalf("same config produced different keys: %s vs %s", k1, k2)
	}
	// Pinned: keys must not move when ProfileOptions changes shape, or
	// every cached and registry template set would be retrained.
	if k1 != "tmpl-250aa99f90b1942d" {
		t.Fatalf("default key moved: %s", k1)
	}
	if k := TemplateCacheKey(NewLowNoiseDevice(1), HighAccuracyProfileOptions()); k != "tmpl-7045412e5feebb81" {
		t.Fatalf("high-accuracy key moved: %s", k)
	}
	if k3 := TemplateCacheKey(NewDevice(2), opts); k3 == k1 {
		t.Fatal("different device seeds share a key")
	}
	if k4 := TemplateCacheKey(NewLowNoiseDevice(1), opts); k4 == k1 {
		t.Fatal("low-noise and default devices share a key")
	}
	opts2 := opts
	opts2.Templates.POICount++
	if k5 := TemplateCacheKey(NewDevice(1), opts2); k5 == k1 {
		t.Fatal("different POI specs share a key")
	}
	opts3 := opts
	opts3.TracesPerValue++
	if k6 := TemplateCacheKey(NewDevice(1), opts3); k6 == k1 {
		t.Fatal("different campaign scales share a key")
	}
}

func TestTemplateCacheLRUEviction(t *testing.T) {
	c := NewTemplateCache(2)
	a, b, d := &CoefficientClassifier{Length: 1}, &CoefficientClassifier{Length: 2}, &CoefficientClassifier{Length: 3}
	putLocked(c, "a", a)
	putLocked(c, "b", b)
	// Touch "a" so "b" is the LRU victim.
	if got, ok := c.Get("a"); !ok || got != a {
		t.Fatal("a missing after put")
	}
	putLocked(c, "d", d)
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction despite being least recently used")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite recent use")
	}
	if _, ok := c.Get("d"); !ok {
		t.Fatal("d missing after put")
	}
}

func TestGetOrTrainCachesAndHits(t *testing.T) {
	c := NewTemplateCache(4)
	var calls atomic.Int32
	train := func(context.Context) (*CoefficientClassifier, error) {
		calls.Add(1)
		return &CoefficientClassifier{Length: 9}, nil
	}
	cls, hit, err := c.GetOrTrain(context.Background(), "k", train)
	if err != nil || hit || cls == nil {
		t.Fatalf("first call: cls=%v hit=%v err=%v", cls, hit, err)
	}
	cls2, hit2, err := c.GetOrTrain(context.Background(), "k", train)
	if err != nil || !hit2 || cls2 != cls {
		t.Fatalf("second call: cls=%v hit=%v err=%v", cls2, hit2, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("train ran %d times, want 1", calls.Load())
	}
}

func TestGetOrTrainDoesNotCacheErrors(t *testing.T) {
	c := NewTemplateCache(4)
	var calls atomic.Int32
	boom := errors.New("boom")
	fail := func(context.Context) (*CoefficientClassifier, error) {
		calls.Add(1)
		return nil, boom
	}
	if _, _, err := c.GetOrTrain(context.Background(), "k", fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := c.GetOrTrain(context.Background(), "k", fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("train ran %d times, want 2 (errors must not be cached)", calls.Load())
	}
	if c.Len() != 0 {
		t.Fatalf("cache len = %d after failures, want 0", c.Len())
	}
}

// TestGetOrTrainSingleFlight launches concurrent callers on one key: the
// training must run exactly once and every caller must receive the same
// classifier.
func TestGetOrTrainSingleFlight(t *testing.T) {
	c := NewTemplateCache(4)
	var calls atomic.Int32
	release := make(chan struct{})
	train := func(context.Context) (*CoefficientClassifier, error) {
		calls.Add(1)
		<-release
		return &CoefficientClassifier{Length: 7}, nil
	}
	const n = 8
	var wg sync.WaitGroup
	results := make([]*CoefficientClassifier, n)
	errs := make([]error, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = c.GetOrTrain(context.Background(), "shared", train)
		}(i)
	}
	// Let every goroutine reach the cache before releasing the trainer.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d received a different classifier", i)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("train ran %d times, want 1", calls.Load())
	}
}

// TestGetOrTrainWaiterHonorsContext cancels a caller stuck behind an
// in-flight training run.
func TestGetOrTrainWaiterHonorsContext(t *testing.T) {
	c := NewTemplateCache(4)
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go func() {
		_, _, _ = c.GetOrTrain(context.Background(), "slow", func(context.Context) (*CoefficientClassifier, error) {
			close(started)
			<-release
			return &CoefficientClassifier{}, nil
		})
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := c.GetOrTrain(ctx, "slow", func(context.Context) (*CoefficientClassifier, error) {
		return nil, fmt.Errorf("second trainer must not run")
	})
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

// putLocked inserts cls under key the way GetOrTrain does after training.
func putLocked(c *TemplateCache, key string, cls *CoefficientClassifier) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(key, cls)
}
