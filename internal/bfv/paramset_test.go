package bfv

import "testing"

func TestResolveParamSet(t *testing.T) {
	for _, name := range []string{"", "paper", "n1024"} {
		p, err := ResolveParamSet(name)
		if err != nil {
			t.Fatalf("ResolveParamSet(%q): %v", name, err)
		}
		if p.N != 1024 || p.Moduli[0] != PaperQ {
			t.Fatalf("ResolveParamSet(%q) is not the paper configuration", name)
		}
	}
	for _, tc := range []struct {
		name  string
		n     int
		chain int
	}{{"n2048", 2048, 1}, {"n4096", 4096, 3}, {"n8192", 8192, 5}} {
		p, err := ResolveParamSet(tc.name)
		if err != nil {
			t.Fatalf("ResolveParamSet(%q): %v", tc.name, err)
		}
		if p.N != tc.n || len(p.Moduli) != tc.chain {
			t.Fatalf("ResolveParamSet(%q): n=%d chain=%d", tc.name, p.N, len(p.Moduli))
		}
	}
	for _, bad := range []string{"n512", "n2048x", "huge", "n"} {
		if _, err := ResolveParamSet(bad); err == nil {
			t.Fatalf("ResolveParamSet(%q) accepted", bad)
		}
	}
	names := ParamSetNames()
	if len(names) != 4 || names[0] != "n1024" || names[3] != "n8192" {
		t.Fatalf("ParamSetNames() = %v", names)
	}
}
