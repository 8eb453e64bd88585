package experiments

import (
	"strings"
	"testing"
)

// One shared session keeps the test suite fast; the experiments are
// deterministic for a fixed config.
func testSession(t *testing.T) *Session {
	t.Helper()
	cfg := DefaultConfig()
	cfg.ProfileTracesPerValue = 30
	cfg.AttackEncryptions = 1
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTables1Through4(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment pipeline")
	}
	s := testSession(t)
	t1, err := s.RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	if t1.SignAccuracy != 1.0 {
		t.Errorf("sign accuracy %.3f, paper claims 100%%", t1.SignAccuracy)
	}
	if t1.ZeroAccuracy != 1.0 {
		t.Errorf("zero accuracy %.3f, paper claims 100%%", t1.ZeroAccuracy)
	}
	if t1.Coefficients != 2*1024*s.Config.AttackEncryptions {
		t.Errorf("coefficient count %d", t1.Coefficients)
	}
	// Negative values must be classified better than positive ones.
	negAvg, posAvg, n := 0.0, 0.0, 0
	for v := 1; v <= 4; v++ {
		if t1.Confusion.Total(v) > 10 && t1.Confusion.Total(-v) > 10 {
			posAvg += t1.Confusion.Accuracy(v)
			negAvg += t1.Confusion.Accuracy(-v)
			n++
		}
	}
	if n > 0 && negAvg <= posAvg {
		t.Errorf("negatives (%.3f) should beat positives (%.3f)", negAvg/float64(n), posAvg/float64(n))
	}
	text := FormatTable1(t1, -7, 7)
	if !strings.Contains(text, "Table I") {
		t.Error("Table I formatting broken")
	}

	// Tables II and III need the measurement quality the paper reports
	// (posteriors ≈ 1, its Table II): the low-noise session.
	cfgLN := DefaultConfig()
	cfgLN.LowNoise = true
	cfgLN.AttackEncryptions = 1
	sLN, err := NewSession(cfgLN)
	if err != nil {
		t.Fatal(err)
	}
	t1LN, err := sLN.RunTable1()
	if err != nil {
		t.Fatal(err)
	}

	rows, err := RunTable2(t1LN.LastOutcome.E2, t1LN.LastCapture.Truth.E2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("Table II rows: %d", len(rows))
	}
	for _, r := range rows {
		// The true value should carry (most of) the probability mass, as
		// in the paper's Table II where posteriors round to ≈1.
		if r.Probs.At(r.Secret) < 0.5 {
			t.Errorf("secret %d has posterior %.3f on the truth", r.Secret, r.Probs.At(r.Secret))
		}
		if r.Variance < 0 {
			t.Errorf("negative variance for secret %d", r.Secret)
		}
	}
	if !strings.Contains(FormatTable2(rows), "centered") {
		t.Error("Table II formatting broken")
	}

	t3, err := RunTable3(sLN.Params, t1LN.LastOutcome.E2)
	if err != nil {
		t.Fatal(err)
	}
	if t3.WithoutHintsBikz < 300 || t3.WithoutHintsBikz > 460 {
		t.Errorf("baseline bikz %.2f outside the paper's regime (382.25)", t3.WithoutHintsBikz)
	}
	if t3.WithHintsBikz > 60 {
		t.Errorf("with-hints bikz %.2f: expected a (near) break (paper 12.2)", t3.WithHintsBikz)
	}

	t4, err := RunTable4(s.Params, t1.LastOutcome.E2)
	if err != nil {
		t.Fatal(err)
	}
	if t4.WithHintsBikz <= t3.WithHintsBikz {
		t.Error("sign-only hints must leave more hardness than full hints")
	}
	if t4.WithHintsBikz >= t4.WithoutHintsBikz {
		t.Error("sign hints must reduce hardness")
	}
	if t4.WithGuessesBikz > t4.WithHintsBikz {
		t.Error("a guess must not increase hardness")
	}
	if t4.SuccessProbability <= 0 || t4.SuccessProbability > 1 {
		t.Errorf("guess success probability %v", t4.SuccessProbability)
	}
}

func TestFig3(t *testing.T) {
	r, err := RunFig3(77)
	if err != nil {
		t.Fatal(err)
	}
	if r.PeakCount != 4 { // 3 coefficients + sentinel
		t.Errorf("peaks=%d want 4", r.PeakCount)
	}
	if len(r.Full) == 0 || len(r.Zero) == 0 || len(r.Positive) == 0 || len(r.Negative) == 0 {
		t.Fatal("empty figure series")
	}
	// The three branch sub-traces must be pairwise distinct (V1 visible).
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if same(r.Zero, r.Positive) || same(r.Zero, r.Negative) || same(r.Positive, r.Negative) {
		t.Error("branch sub-traces are identical — no control-flow leakage")
	}
	// The negative branch executes two more instructions than the positive
	// one, so its segment is longer at equal port wait... compare against
	// zero (shortest body): negative must be the longest fixed tail.
	if len(r.Negative) <= len(r.Zero)-12 {
		t.Error("negative branch sub-trace suspiciously short")
	}
}

func TestRunCrossDevice(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProfileTracesPerValue = 30
	cfg.AttackEncryptions = 1
	res, err := RunCrossDevice(cfg, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	// Templates must transfer worse to the perturbed sibling (§V-B).
	if res.CrossDeviceValueAcc >= res.SameDeviceValueAcc {
		t.Errorf("cross-device value accuracy %.3f not below same-device %.3f",
			res.CrossDeviceValueAcc, res.SameDeviceValueAcc)
	}
	if res.SameDeviceSignAcc != 1.0 {
		t.Errorf("same-device sign accuracy %.3f, want 100%%", res.SameDeviceSignAcc)
	}
}

func TestSecuritySweep(t *testing.T) {
	rows, err := RunSecuritySweep([]int{1024, 2048, 4096}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.FullHintsBikz >= r.SignHintsBikz {
			t.Errorf("n=%d: full hints (%.1f) must beat sign hints (%.1f)",
				r.N, r.FullHintsBikz, r.SignHintsBikz)
		}
		if r.SignHintsBikz >= r.BaselineBikz {
			t.Errorf("n=%d: sign hints (%.1f) must beat baseline (%.1f)",
				r.N, r.SignHintsBikz, r.BaselineBikz)
		}
		// Full hints break every parameter set (the paper's "applicable to
		// all security levels" claim): error coordinates all eliminated.
		if r.FullHintsBits > 40 {
			t.Errorf("n=%d: full-hints security %.1f bits — not a break", r.N, r.FullHintsBits)
		}
	}
	if !strings.Contains(FormatSweep(rows), "Security sweep") {
		t.Error("sweep formatting broken")
	}
}

func TestRunTimingVariance(t *testing.T) {
	res, err := RunTimingVariance(128, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lengths) != 127 {
		t.Fatalf("lengths=%d want 127", len(res.Lengths))
	}
	// §III-C: the duration must actually vary (rejection sampling).
	if res.DistinctN < 3 {
		t.Errorf("only %d distinct segment lengths — no time variance?", res.DistinctN)
	}
	if res.Min >= res.Max {
		t.Error("min/max wrong")
	}
	if res.Mean < float64(res.Min) || res.Mean > float64(res.Max) {
		t.Error("mean outside [min,max]")
	}
}
