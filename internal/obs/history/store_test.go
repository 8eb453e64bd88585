package history

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func testRecord(kind, tenant string, acc float64) RunRecord {
	return RunRecord{
		Kind: kind, Tenant: tenant, Seed: 1,
		ElapsedSeconds: 0.25,
		Stages:         map[string]float64{"attack_seconds": 0.2},
		Metrics:        map[string]float64{"value_accuracy": acc, "mean_margin": acc / 2},
	}
}

func TestStoreAppendQueryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		kind := "attack"
		if i%3 == 0 {
			kind = "diagnose"
		}
		rec, err := s.Append(testRecord(kind, "ci", 0.9))
		if err != nil {
			t.Fatal(err)
		}
		if rec.Seq != int64(i+1) {
			t.Fatalf("seq = %d, want %d", rec.Seq, i+1)
		}
		if rec.Time.IsZero() {
			t.Fatal("Append must stamp Time")
		}
	}
	res := s.Query(Query{Kind: "attack"})
	if res.Total != 6 || len(res.Records) != 6 {
		t.Fatalf("attack query: total %d, page %d, want 6/6", res.Total, len(res.Records))
	}
	for i := 1; i < len(res.Records); i++ {
		if res.Records[i].Seq <= res.Records[i-1].Seq {
			t.Fatal("records must be oldest-first")
		}
	}
	if got := s.Kinds(); len(got) != 2 || got[0] != "attack" || got[1] != "diagnose" {
		t.Fatalf("Kinds = %v", got)
	}

	// Cursor pagination: two pages of 3 cover all 6 attack records.
	page1 := s.Query(Query{Kind: "attack", Limit: 3})
	if len(page1.Records) != 3 || page1.NextAfter != page1.Records[2].Seq {
		t.Fatalf("page1 = %d records, next %d", len(page1.Records), page1.NextAfter)
	}
	page2 := s.Query(Query{Kind: "attack", AfterSeq: page1.NextAfter, Limit: 10})
	if len(page2.Records) != 3 {
		t.Fatalf("page2 = %d records, want 3", len(page2.Records))
	}
	if page2.Records[0].Seq <= page1.Records[2].Seq {
		t.Fatal("page2 must start after page1's cursor")
	}
	empty := s.Query(Query{Kind: "attack", AfterSeq: page2.NextAfter})
	if len(empty.Records) != 0 || empty.NextAfter != page2.NextAfter {
		t.Fatalf("exhausted cursor returned %d records, next %d", len(empty.Records), empty.NextAfter)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreReplayAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Append(testRecord("attack", "", 0.8+float64(i)/100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 5 || lastSeq(s2) != 5 {
		t.Fatalf("reopened store: len %d lastSeq %d, want 5/5", s2.Len(), lastSeq(s2))
	}
	// Sequence numbering continues where the previous incarnation stopped.
	rec, err := s2.Append(testRecord("attack", "", 0.9))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 6 {
		t.Fatalf("post-reopen seq = %d, want 6", rec.Seq)
	}
	got := s2.Query(Query{}).Records
	if got[0].Metrics["value_accuracy"] != 0.8 {
		t.Fatalf("oldest record corrupted: %+v", got[0])
	}
}

func TestStoreTornTailIsSkippedAndSealed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Append(testRecord("attack", "", 0.9)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: a torn, newline-less JSON fragment.
	seg := filepath.Join(dir, "seg-00000001.jsonl")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":4,"kind":"att`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 3 {
		t.Fatalf("len after torn tail = %d, want 3", s2.Len())
	}
	if s2.Skipped() != 1 {
		t.Fatalf("skipped = %d, want 1", s2.Skipped())
	}
	// The torn segment is sealed: the next append must open a new segment,
	// leaving the torn bytes isolated.
	if _, err := s2.Append(testRecord("attack", "", 0.9)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-00000002.jsonl")); err != nil {
		t.Fatalf("append after torn tail must start a fresh segment: %v", err)
	}
	if got := s2.Query(Query{}).Total; got != 4 {
		t.Fatalf("total after reopen+append = %d, want 4", got)
	}
}

func TestStoreRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force constant rotation; MaxSegments 3 forces drops.
	s, err := Open(Options{Dir: dir, MaxSegmentBytes: 512, MaxSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const total = 200
	for i := 0; i < total; i++ {
		if _, err := s.Append(testRecord("attack", "", 0.9)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") {
			segs++
		}
	}
	if segs > 3 {
		t.Fatalf("retention kept %d segments, cap 3", segs)
	}
	if s.Len() >= total || s.Len() == 0 {
		t.Fatalf("index len = %d, want 0 < len < %d after retention", s.Len(), total)
	}
	// The retained window is the newest suffix and stays queryable.
	res := s.Query(Query{Limit: 1000})
	if res.Total != s.Len() {
		t.Fatalf("query total %d != len %d", res.Total, s.Len())
	}
	if last := res.Records[len(res.Records)-1].Seq; last != int64(total) {
		t.Fatalf("newest seq = %d, want %d", last, total)
	}
}

// TestStoreConcurrentAppendQuery hammers the store from parallel appenders,
// queriers, and aggregators while tiny segments keep rotation and retention
// compaction constantly active — the -race workout the service relies on.
func TestStoreConcurrentAppendQuery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, MaxSegmentBytes: 2048, MaxSegments: 4, SyncEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const (
		writers    = 4
		perWriter  = 150
		queriers   = 3
		iterations = 60
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				kind := "attack"
				if i%2 == 0 {
					kind = "diagnose"
				}
				rec := testRecord(kind, fmt.Sprintf("t%d", w), 0.9)
				if _, err := s.Append(rec); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cursor int64
			for i := 0; i < iterations; i++ {
				res := s.Query(Query{AfterSeq: cursor, Limit: 50})
				for j := 1; j < len(res.Records); j++ {
					if res.Records[j].Seq <= res.Records[j-1].Seq {
						t.Error("page not strictly seq-ordered")
						return
					}
				}
				cursor = res.NextAfter
				s.Aggregate("attack", "", 32)
				s.Kinds()
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if lastSeq(s) != writers*perWriter {
		t.Fatalf("lastSeq = %d, want %d", lastSeq(s), writers*perWriter)
	}
}

func TestStoreRejectsMissingDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open without Dir must fail")
	}
}

func TestStoreClosedAppendFails(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(testRecord("attack", "", 1)); err == nil {
		t.Fatal("append after Close must fail")
	}
}

// lastSeq returns the most recently assigned sequence number of s.
func lastSeq(s *Store) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}
