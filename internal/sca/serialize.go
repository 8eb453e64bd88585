package sca

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"reveal/internal/linalg"
)

// Binary serialization of trained templates, so a profiling campaign can
// be run once and reused across attack sessions (the paper's profiling
// cost was 220,000 device executions — worth persisting).

const (
	templatesMagic = "SCTM"
	// templatesVersion 2 adds the precomputed inverse covariance and keeps
	// the log-determinant, so loading a template never re-inverts a matrix.
	// Version-1 streams lack those fields and are rejected with
	// ErrStaleTemplateVersion.
	templatesVersion = 2
)

// ErrStaleTemplateVersion marks a template stream written by an older
// format that predates the precomputed scoring structures. Re-run
// profiling to regenerate the templates.
var ErrStaleTemplateVersion = errors.New("sca: stale template version (re-run profiling to regenerate with precomputed inverse covariance)")

// ErrPerClassCovariance marks a stream of per-class covariance templates
// (header flag pooled = 0). Only pooled templates are scored; re-run
// profiling to regenerate them.
var ErrPerClassCovariance = errors.New("sca: per-class covariance templates are not supported (re-run profiling to regenerate pooled templates)")

// ErrMixedCovariance marks a pooled stream whose classes do not all carry
// the same covariance factor, inverse and log-determinant.
var ErrMixedCovariance = errors.New("sca: pooled template classes carry different covariances")

// readChunk bounds how many floats the reader requests at once, so a
// header that promises more data than the stream holds costs memory only
// for the bytes actually present.
const readChunk = 512

// WriteTemplates serializes a trained template set. Format v2 repeats the
// pooled covariance's Cholesky factor, inverse and log-determinant after
// every class mean.
func WriteTemplates(w io.Writer, t *Templates) error {
	if t == nil || len(t.classes) == 0 {
		return fmt.Errorf("sca: cannot serialize empty templates")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(templatesMagic); err != nil {
		return err
	}
	d := len(t.POIs)
	header := []uint32{templatesVersion, 1 /* pooled */, uint32(d), uint32(len(t.classes))}
	for _, v := range header {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, p := range t.POIs {
		if err := binary.Write(bw, binary.LittleEndian, int32(p)); err != nil {
			return err
		}
	}
	writeFloats := func(fs []float64) error {
		for _, f := range fs {
			if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(f)); err != nil {
				return err
			}
		}
		return nil
	}
	for _, c := range t.classes {
		if err := binary.Write(bw, binary.LittleEndian, int32(c.label)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(c.count)); err != nil {
			return err
		}
		for _, fs := range [][]float64{c.mean, t.chol.Data, t.invCov.Data, {t.logDet}} {
			if err := writeFloats(fs); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// floatReader decodes little-endian float64 runs in bounded chunks.
type floatReader struct {
	r   io.Reader
	buf [8 * readChunk]byte
}

// read returns the next n floats, growing the result one chunk at a time.
func (fr *floatReader) read(n int) ([]float64, error) {
	var dst []float64
	for n > 0 {
		k := min(n, readChunk)
		if _, err := io.ReadFull(fr.r, fr.buf[:8*k]); err != nil {
			return nil, err
		}
		for i := 0; i < k; i++ {
			dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(fr.buf[8*i:])))
		}
		n -= k
	}
	return dst, nil
}

// expect reads len(want) floats and checks they equal want bit for bit.
func (fr *floatReader) expect(want []float64) error {
	for len(want) > 0 {
		k := min(len(want), readChunk)
		if _, err := io.ReadFull(fr.r, fr.buf[:8*k]); err != nil {
			return err
		}
		for i := 0; i < k; i++ {
			if binary.LittleEndian.Uint64(fr.buf[8*i:]) != math.Float64bits(want[i]) {
				return ErrMixedCovariance
			}
		}
		want = want[k:]
	}
	return nil
}

// ReadTemplates deserializes a template set written by WriteTemplates. The
// inverse covariance and log-determinant are loaded as written, and the
// cached solver and whitened class means are rebuilt from the stored
// Cholesky factor, so a round-tripped template scores bitwise identically
// to the original.
func ReadTemplates(r io.Reader) (*Templates, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("sca: reading magic: %w", err)
	}
	if string(magic) != templatesMagic {
		return nil, fmt.Errorf("sca: bad magic %q", magic)
	}
	var version, pooled, d, nClasses uint32
	for _, p := range []*uint32{&version, &pooled, &d, &nClasses} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, err
		}
	}
	if version != templatesVersion {
		if version < templatesVersion {
			return nil, fmt.Errorf("%w (got version %d, want %d)", ErrStaleTemplateVersion, version, templatesVersion)
		}
		return nil, fmt.Errorf("sca: unsupported version %d", version)
	}
	if pooled != 1 {
		return nil, fmt.Errorf("%w (pooled flag %d)", ErrPerClassCovariance, pooled)
	}
	if d == 0 || d > 4096 || nClasses == 0 || nClasses > 4096 {
		return nil, fmt.Errorf("sca: implausible header d=%d classes=%d", d, nClasses)
	}
	t := &Templates{}
	for i := uint32(0); i < d; i++ {
		var p int32
		if err := binary.Read(br, binary.LittleEndian, &p); err != nil {
			return nil, err
		}
		if p < 0 {
			return nil, fmt.Errorf("sca: negative POI %d", p)
		}
		t.POIs = append(t.POIs, int(p))
	}
	fr := &floatReader{r: br}
	n, nn := int(d), int(d*d)
	for c := uint32(0); c < nClasses; c++ {
		var label int32
		var count uint32
		if err := binary.Read(br, binary.LittleEndian, &label); err != nil {
			return nil, err
		}
		if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
			return nil, err
		}
		mean, err := fr.read(n)
		if err != nil {
			return nil, err
		}
		t.classes = append(t.classes, classTemplate{label: int(label), count: int(count), mean: mean})
		if c > 0 {
			// Pooled: every later class must repeat the first one's covariance.
			for _, want := range [][]float64{t.chol.Data, t.invCov.Data, {t.logDet}} {
				if err := fr.expect(want); err != nil {
					return nil, fmt.Errorf("sca: class %d: %w", c, err)
				}
			}
			continue
		}
		cov, err := fr.read(2*nn + 1)
		if err != nil {
			return nil, err
		}
		t.chol = &linalg.Matrix{Rows: n, Cols: n, Data: cov[:nn:nn]}
		t.invCov = &linalg.Matrix{Rows: n, Cols: n, Data: cov[nn : 2*nn : 2*nn]}
		t.logDet = cov[2*nn]
	}
	t.whiten()
	return t, nil
}
