package core

import (
	"context"
	"fmt"
	"sync"

	"reveal/internal/obs"
	"reveal/internal/trace"
)

// classifyCancelStride is how many coefficients each worker classifies
// between context checks: cheap enough to keep cancellation latency low
// without paying a ctx.Err() per coefficient.
const classifyCancelStride = 16

// AttackSegmentsParallel classifies the per-coefficient segments on a
// sharded worker pool: the segment index space is split into `workers`
// contiguous shards, and each shard is classified by its own goroutine
// writing results by index. workers <= 1 runs the single shard inline on
// the calling goroutine. Because every coefficient's classification is an
// independent pure function of its segment, the output is byte-identical
// for every worker count — parallelism is purely a throughput
// optimization. The pool aborts early (and cancels its siblings) on the
// first error or when ctx is done.
func (c *CoefficientClassifier) AttackSegmentsParallel(ctx context.Context, segs []trace.Segment, workers int) (*AttackResult, error) {
	sp := obs.StartSpanCtx(ctx, "classify")
	sp.AddItems(len(segs))
	defer sp.End()
	labels := c.posteriorLabels()
	res := &AttackResult{
		Values: make([]int, len(segs)),
		Signs:  make([]int, len(segs)),
		Labels: labels,
		Probs:  posteriorRows(len(segs), len(labels)),
	}
	if workers > len(segs) {
		workers = len(segs)
	}
	if workers <= 1 {
		if err := c.classifyShard(ctx, segs, res, 0, len(segs)); err != nil {
			return nil, err
		}
		return res, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	// Contiguous shards: worker w owns [w*quota, min((w+1)*quota, n)), the
	// last one absorbing the remainder. Contiguity keeps each worker's
	// memory walk sequential over the segment slice.
	quota := (len(segs) + workers - 1) / workers
	for lo := 0; lo < len(segs); lo += quota {
		hi := min(lo+quota, len(segs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.classifyShard(ctx, segs, res, lo, hi); err != nil {
				errOnce.Do(func() {
					firstErr = err
					cancel()
				})
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return res, nil
}

// classifyShard is the one per-coefficient classify loop of the batch
// attack: it classifies segs[lo:hi] into res by index on one pooled
// scoring context (scratch buffers are goroutine-local, so results are
// bitwise identical however the index space is sharded), checking ctx
// every classifyCancelStride coefficients.
func (c *CoefficientClassifier) classifyShard(ctx context.Context, segs []trace.Segment, res *AttackResult, lo, hi int) error {
	ss := c.scorer()
	defer c.release(ss)
	for i := lo; i < hi; i++ {
		if (i-lo)%classifyCancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("core: classification canceled at coefficient %d: %w", i, err)
			}
		}
		v, s, err := ss.classify(segs[i].Samples, res.Probs[i])
		if err != nil {
			return fmt.Errorf("core: coefficient %d: %w", i, err)
		}
		res.Values[i], res.Signs[i] = v, s
	}
	return nil
}
