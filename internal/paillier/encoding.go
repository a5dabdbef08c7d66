package paillier

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"sync"

	"digfl/internal/parallel"
)

// Scale is the default fixed-point scale: floats are encoded as v·Scale
// truncated toward zero before encryption. 2^40 keeps ~12 decimal digits. A
// product of two encodings sits at Scale², so in a 256-bit modulus about 175
// bits remain for the magnitudes the VFL protocol multiplies and sums (the
// headroom condition in DESIGN.md).
const Scale = 1 << 40

// ErrNonFinite reports a NaN or ±Inf handed to the fixed-point encoder.
var ErrNonFinite = errors.New("paillier: non-finite value")

// ErrOutOfRange reports a value whose fixed-point integer exceeds ⌊n/2⌋ in
// magnitude: its encoding would wrap mod n and decode as another number.
var ErrOutOfRange = errors.New("paillier: value outside the key's fixed-point range")

var scaleInt = big.NewInt(Scale)

// Encode maps a float64 to a field element: v·Scale truncated toward zero,
// with a negative result wrapped to n − |v·Scale|. It refuses a non-finite v
// (ErrNonFinite) and a v whose integer exceeds ⌊n/2⌋ in magnitude
// (ErrOutOfRange), the values Decode could not read back.
func (pk *PublicKey) Encode(v float64) (*big.Int, error) {
	return pk.encode(v, 1)
}

// EncodeVec encodes every element of v at fixed-point scale Scale^level:
// v·Scale truncated toward zero, then multiplied by Scale^(level−1) — the
// level of a product of `level` Scale-level encodings, which
// DecryptFloatAtScale reads back. It refuses what Encode refuses, at that
// level, and reports the lowest-indexed such element.
func (pk *PublicKey) EncodeVec(v []float64, level int) ([]*big.Int, error) {
	if level < 1 {
		return nil, fmt.Errorf("paillier: invalid scale level %d", level)
	}
	out := make([]*big.Int, len(v))
	for i, x := range v {
		m, err := pk.encode(x, level)
		if err != nil {
			return nil, fmt.Errorf("paillier: encoding element %d: %w", i, err)
		}
		out[i] = m
	}
	return out, nil
}

func (pk *PublicKey) encode(v float64, level int) (*big.Int, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil, fmt.Errorf("%w: %v", ErrNonFinite, v)
	}
	scaled := v * Scale
	if math.IsInf(scaled, 0) {
		return nil, fmt.Errorf("%w: %g", ErrOutOfRange, v)
	}
	m, _ := big.NewFloat(scaled).Int(nil)
	for i := 1; i < level; i++ {
		m.Mul(m, scaleInt)
	}
	half := getInt().Rsh(pk.N, 1)
	over := m.CmpAbs(half) > 0
	putInt(half)
	if over {
		return nil, fmt.Errorf("%w: %g at scale level %d", ErrOutOfRange, v, level)
	}
	if m.Sign() < 0 {
		m.Add(m, pk.N)
	}
	return m, nil
}

// Decode inverts Encode: values above n/2 are interpreted as negative.
func (pk *PublicKey) Decode(m *big.Int) float64 {
	half := new(big.Int).Rsh(pk.N, 1)
	v := new(big.Int).Set(m)
	if v.Cmp(half) > 0 {
		v.Sub(v, pk.N)
	}
	f, _ := new(big.Float).SetInt(v).Float64()
	return f / Scale
}

// EncryptFloat encrypts a float64 under the fixed-point encoding.
func (pk *PublicKey) EncryptFloat(rnd io.Reader, v float64) (*Ciphertext, error) {
	m, err := pk.Encode(v)
	if err != nil {
		return nil, err
	}
	return pk.Encrypt(rnd, m)
}

// DecryptFloat decrypts to a float64 under the fixed-point encoding.
func (sk *PrivateKey) DecryptFloat(ct *Ciphertext) (float64, error) {
	m, err := sk.Decrypt(ct)
	if err != nil {
		return 0, err
	}
	return sk.Decode(m), nil
}

// EncryptVec encrypts every element of v serially. For large vectors prefer
// EncryptVecN, which spreads the per-element modular exponentiations over
// the shared bounded worker pool.
func (pk *PublicKey) EncryptVec(rnd io.Reader, v []float64) ([]*Ciphertext, error) {
	return pk.EncryptVecN(rnd, v, 1)
}

// EncryptVecN encrypts every element of v using at most `workers`
// goroutines (0 or negative selects GOMAXPROCS). When more than one worker
// may run, rnd must be safe for concurrent use — crypto/rand.Reader is. The
// plaintexts inside the returned ciphertexts are identical to the serial
// path for any worker count; only the encryption randomness differs.
func (pk *PublicKey) EncryptVecN(rnd io.Reader, v []float64, workers int) ([]*Ciphertext, error) {
	out := make([]*Ciphertext, len(v))
	var firstErr vecErr
	parallel.For(len(v), workers, func(i int) {
		ct, err := pk.EncryptFloat(rnd, v[i])
		if err != nil {
			firstErr.set(i, fmt.Errorf("paillier: encrypting element %d: %w", i, err))
			return
		}
		out[i] = ct
	})
	if err := firstErr.get(); err != nil {
		return nil, err
	}
	return out, nil
}

// DecryptVec decrypts every element serially. For large vectors prefer
// DecryptVecN.
func (sk *PrivateKey) DecryptVec(cts []*Ciphertext) ([]float64, error) {
	return sk.DecryptVecN(cts, 1)
}

// DecryptVecN decrypts every element using at most `workers` goroutines
// (0 or negative selects GOMAXPROCS). The result is bit-identical to the
// serial path: decryption is a pure function of each ciphertext.
func (sk *PrivateKey) DecryptVecN(cts []*Ciphertext, workers int) ([]float64, error) {
	out := make([]float64, len(cts))
	var firstErr vecErr
	parallel.For(len(cts), workers, func(i int) {
		v, err := sk.DecryptFloat(cts[i])
		if err != nil {
			firstErr.set(i, fmt.Errorf("paillier: decrypting element %d: %w", i, err))
			return
		}
		out[i] = v
	})
	if err := firstErr.get(); err != nil {
		return nil, err
	}
	return out, nil
}

// vecErr retains the error from the lowest-indexed failing element of a
// parallel vector operation, so the reported error is deterministic no
// matter which worker fails first.
type vecErr struct {
	mu  sync.Mutex
	i   int
	err error
}

func (e *vecErr) set(i int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err == nil || i < e.i {
		e.i, e.err = i, err
	}
}

func (e *vecErr) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// AddVec returns the element-wise homomorphic sum of two ciphertext vectors.
func (pk *PublicKey) AddVec(a, b []*Ciphertext) []*Ciphertext {
	if len(a) != len(b) {
		panic(fmt.Sprintf("paillier: AddVec length mismatch %d vs %d", len(a), len(b)))
	}
	out := make([]*Ciphertext, len(a))
	for i := range a {
		out[i] = pk.Add(a[i], b[i])
	}
	return out
}

// AddPlainFloat returns the encryption of a + v under fixed-point encoding.
// It refuses the values Encode refuses.
func (pk *PublicKey) AddPlainFloat(a *Ciphertext, v float64) (*Ciphertext, error) {
	m, err := pk.Encode(v)
	if err != nil {
		return nil, err
	}
	return pk.AddPlain(a, m), nil
}

// MulPlainFloat multiplies a ciphertext by a plaintext float. The plaintext
// inside the result is at fixed-point scale Scale² (one extra Scale factor
// per float multiplication) — decrypt it with DecryptFloatAtScale(ct, 2).
// It refuses the values Encode refuses; the Scale² product itself must stay
// within ⌊n/2⌋, which no check on v alone can ensure.
func (pk *PublicKey) MulPlainFloat(a *Ciphertext, v float64) (*Ciphertext, error) {
	m, err := pk.Encode(v)
	if err != nil {
		return nil, err
	}
	return pk.MulPlain(a, m), nil
}

// DecryptFloatAtScale decrypts a ciphertext whose plaintext is at
// fixed-point scale Scale^level; level 1 is the ordinary encoding, level 2
// the result of one MulPlainFloat, and so on.
func (sk *PrivateKey) DecryptFloatAtScale(ct *Ciphertext, level int) (float64, error) {
	if level < 1 {
		return 0, fmt.Errorf("paillier: invalid scale level %d", level)
	}
	m, err := sk.Decrypt(ct)
	if err != nil {
		return 0, err
	}
	half := new(big.Int).Rsh(sk.N, 1)
	v := new(big.Int).Set(m)
	if v.Cmp(half) > 0 {
		v.Sub(v, sk.N)
	}
	f := new(big.Float).SetInt(v)
	for i := 0; i < level; i++ {
		f.Quo(f, big.NewFloat(Scale))
	}
	out, _ := f.Float64()
	return out, nil
}
