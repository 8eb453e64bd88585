package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// Digest returns the canonical SHA-256 fingerprint of the result: values,
// signs, and the full posterior table, marshaled as canonical JSON (see
// PosteriorTable: floats in shortest round-trip form, so two results digest
// equal iff every float is bit-identical up to the -0/0 distinction JSON
// preserves). The streaming and batch attack paths are held to digest
// equality by the determinism contract and the CI stream-smoke job.
func (r *AttackResult) Digest() (string, error) {
	data, err := json.Marshal(struct {
		Values []int          `json:"values"`
		Signs  []int          `json:"signs"`
		Probs  PosteriorTable `json:"probs"`
	}{r.Values, r.Signs, PosteriorTable{r.Labels, r.Probs}})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Prefix returns the result truncated to its first n coefficients (views,
// not copies) — the shape an early-exited streaming attack produces, used
// to digest-compare a stream prefix against the batch result.
func (r *AttackResult) Prefix(n int) *AttackResult {
	if n > len(r.Values) {
		n = len(r.Values)
	}
	return &AttackResult{Values: r.Values[:n], Signs: r.Signs[:n], Labels: r.Labels, Probs: r.Probs[:n]}
}
