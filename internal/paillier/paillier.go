// Package paillier implements the Paillier additively homomorphic
// cryptosystem over math/big, the encryption primitive behind the paper's
// VFL running example (Algorithm 3 uses Paillier with 1024-bit keys). It
// supports ciphertext addition, plaintext addition, and plaintext scalar
// multiplication, plus a fixed-point encoding so gradients (float64 vectors)
// can be exchanged under encryption.
package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
)

var one = big.NewInt(1)

// intPool recycles big.Int scratch values across the hot arithmetic paths
// (CRT decryption, encryption randomness, plaintext scalar reduction).
// Only pure intermediates go back to the pool — a value that escapes into
// a Ciphertext or a returned plaintext is never Put, because the caller
// owns it. Pooled values keep their grown backing arrays, so steady-state
// vector encryption/decryption stops allocating limb storage.
var intPool = sync.Pool{New: func() any { return new(big.Int) }}

func getInt() *big.Int  { return intPool.Get().(*big.Int) }
func putInt(x *big.Int) { intPool.Put(x) }

// PublicKey holds the Paillier public parameters (n, g = n+1).
type PublicKey struct {
	N  *big.Int // modulus n = p·q
	N2 *big.Int // n²
}

// PrivateKey holds the decryption parameters: the two prime factors of n,
// each with what its half of the CRT decryption needs, and q⁻¹ mod p for
// the recombination (Paillier '99 §7).
type PrivateKey struct {
	PublicKey
	fp, fq primeFactor
	qinv   *big.Int // q⁻¹ mod p
}

// primeFactor is one prime p of n with the values that recover m mod p:
// m_p = L_p(c^{p−1} mod p²)·h_p mod p, where L_p(x) = (x−1)/p. With
// g = n+1, L_p(g^{p−1} mod p²) = −q mod p, so h_p = (−q)⁻¹ mod p.
type primeFactor struct {
	p, p2 *big.Int // p, p²
	pm1   *big.Int // p−1
	h     *big.Int // h_p = (−q)⁻¹ mod p, q the other factor
}

func newPrimeFactor(p, other *big.Int) (primeFactor, bool) {
	negOther := new(big.Int).Neg(other)
	h := new(big.Int).ModInverse(negOther.Mod(negOther, p), p)
	return primeFactor{
		p:   p,
		p2:  new(big.Int).Mul(p, p),
		pm1: new(big.Int).Sub(p, one),
		h:   h,
	}, h != nil
}

// decrypt returns m mod p for a ciphertext c. The exponent p−1 is half the
// bits of λ = lcm(p−1, q−1), which is what makes this faster than c^λ.
func (f *primeFactor) decrypt(c *big.Int) *big.Int {
	red := getInt().Mod(c, f.p2)
	x := getInt().Exp(red, f.pm1, f.p2)
	putInt(red)
	x.Sub(x, one)
	x.Quo(x, f.p)
	x.Mul(x, f.h)
	return x.Mod(x, f.p)
}

// Ciphertext is an element of Z*_{n²}.
type Ciphertext struct{ C *big.Int }

// GenerateKey creates a key pair with an n of roughly `bits` bits, reading
// randomness from rnd (use crypto/rand.Reader in production; any reader in
// tests).
func GenerateKey(rnd io.Reader, bits int) (*PrivateKey, error) {
	if bits < 64 {
		return nil, fmt.Errorf("paillier: key size %d too small", bits)
	}
	for {
		p, err := rand.Prime(rnd, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating p: %w", err)
		}
		q, err := rand.Prime(rnd, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating q: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		fp, okp := newPrimeFactor(p, q)
		fq, okq := newPrimeFactor(q, p)
		qinv := new(big.Int).ModInverse(q, p)
		if !okp || !okq || qinv == nil {
			continue
		}
		n := new(big.Int).Mul(p, q)
		return &PrivateKey{
			PublicKey: PublicKey{N: n, N2: new(big.Int).Mul(n, n)},
			fp:        fp, fq: fq,
			qinv: qinv,
		}, nil
	}
}

// Encrypt encrypts m ∈ [0, n) with fresh randomness from rnd.
func (pk *PublicKey) Encrypt(rnd io.Reader, m *big.Int) (*Ciphertext, error) {
	if m.Sign() < 0 || m.Cmp(pk.N) >= 0 {
		return nil, fmt.Errorf("paillier: plaintext out of range [0, n)")
	}
	gcd := getInt()
	var r *big.Int
	for {
		var err error
		r, err = rand.Int(rnd, pk.N)
		if err != nil {
			putInt(gcd)
			return nil, fmt.Errorf("paillier: sampling r: %w", err)
		}
		if r.Sign() > 0 && gcd.GCD(nil, nil, r, pk.N).Cmp(one) == 0 {
			break
		}
	}
	putInt(gcd)
	// g^m = (1+n)^m = 1 + m·n (mod n²). gm escapes as the ciphertext; rn is
	// pure scratch and goes back to the pool.
	gm := new(big.Int).Mul(m, pk.N)
	gm.Add(gm, one)
	gm.Mod(gm, pk.N2)
	rn := getInt().Exp(r, pk.N, pk.N2)
	c := gm.Mul(gm, rn)
	c.Mod(c, pk.N2)
	putInt(rn)
	return &Ciphertext{C: c}, nil
}

// Decrypt recovers the plaintext in [0, n).
func (sk *PrivateKey) Decrypt(ct *Ciphertext) (*big.Int, error) {
	if ct == nil || ct.C == nil || ct.C.Sign() <= 0 || ct.C.Cmp(sk.N2) >= 0 {
		return nil, errors.New("paillier: ciphertext out of range")
	}
	// m = m_q + q·((m_p − m_q)·q⁻¹ mod p), which lies in [0, n).
	mp := sk.fp.decrypt(ct.C)
	mq := sk.fq.decrypt(ct.C)
	mp.Sub(mp, mq)
	mp.Mul(mp, sk.qinv)
	mp.Mod(mp, sk.fp.p)
	m := new(big.Int).Mul(mp, sk.fq.p)
	m.Add(m, mq)
	putInt(mp)
	putInt(mq)
	return m, nil
}

// Add returns the encryption of a+b given encryptions of a and b.
func (pk *PublicKey) Add(a, b *Ciphertext) *Ciphertext {
	c := new(big.Int).Mul(a.C, b.C)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}
}

// AddPlain returns the encryption of a+m given an encryption of a and a
// plaintext m ∈ [0, n).
func (pk *PublicKey) AddPlain(a *Ciphertext, m *big.Int) *Ciphertext {
	red := getInt().Mod(m, pk.N)
	gm := new(big.Int).Mul(red, pk.N)
	putInt(red)
	gm.Add(gm, one)
	gm.Mod(gm, pk.N2)
	c := gm.Mul(gm, a.C)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}
}

// MulPlain returns the encryption of k·a given an encryption of a and a
// plaintext scalar k. A negative k reduces to n−|k|, a full-width exponent,
// so when k mod n > n/2 the product is taken as (c⁻¹)^(n − k mod n): it
// differs from c^(k mod n) by the factor c⁻ⁿ, an encryption of zero, so it
// decrypts to the same k·a mod n at the cost of |k| bits of exponent. The
// branch depends on the scalar's value (see README Caveats).
func (pk *PublicKey) MulPlain(a *Ciphertext, k *big.Int) *Ciphertext {
	pos := getInt().Mod(k, pk.N)
	neg := getInt().Sub(pk.N, pos)
	inv := getInt()
	base, exp := a.C, pos
	// A ciphertext sharing a factor with n has no inverse; it keeps the
	// textbook exponent.
	if neg.Cmp(pos) < 0 && inv.ModInverse(a.C, pk.N2) != nil {
		base, exp = inv, neg
	}
	c := new(big.Int).Exp(base, exp, pk.N2)
	putInt(pos)
	putInt(neg)
	putInt(inv)
	return &Ciphertext{C: c}
}

// Bytes returns the serialized size of a ciphertext in bytes, used by the
// communication-cost accounting.
func (pk *PublicKey) Bytes() int { return (pk.N2.BitLen() + 7) / 8 }
