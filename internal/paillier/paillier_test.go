package paillier

import (
	"crypto/rand"
	"errors"
	"math"
	"math/big"
	"strings"
	"testing"
	"testing/quick"
)

const testBits = 256

func testKey(t *testing.T) *PrivateKey {
	t.Helper()
	sk, err := GenerateKey(rand.Reader, testBits)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	sk := testKey(t)
	for _, m := range []int64{0, 1, 42, 1 << 30} {
		ct, err := sk.Encrypt(rand.Reader, big.NewInt(m))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if got.Int64() != m {
			t.Fatalf("round trip %d -> %d", m, got.Int64())
		}
	}
}

func TestEncryptionIsRandomized(t *testing.T) {
	sk := testKey(t)
	a, _ := sk.Encrypt(rand.Reader, big.NewInt(7))
	b, _ := sk.Encrypt(rand.Reader, big.NewInt(7))
	if a.C.Cmp(b.C) == 0 {
		t.Fatal("two encryptions of the same plaintext must differ")
	}
}

func TestHomomorphicAdd(t *testing.T) {
	sk := testKey(t)
	a, _ := sk.Encrypt(rand.Reader, big.NewInt(100))
	b, _ := sk.Encrypt(rand.Reader, big.NewInt(23))
	sum, err := sk.Decrypt(sk.Add(a, b))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Int64() != 123 {
		t.Fatalf("Dec(Enc(100)+Enc(23)) = %d", sum.Int64())
	}
}

func TestAddPlainAndMulPlain(t *testing.T) {
	sk := testKey(t)
	const m = 10
	a, _ := sk.Encrypt(rand.Reader, big.NewInt(m))
	got, _ := sk.Decrypt(sk.AddPlain(a, big.NewInt(5)))
	if got.Int64() != 15 {
		t.Fatalf("AddPlain = %d", got.Int64())
	}
	// MulPlain must decrypt to k·m mod n for every scalar, on both sides of
	// its sign branch, and agree with the textbook product c^(k mod n).
	n := sk.N
	half := new(big.Int).Rsh(n, 1)
	add := func(x *big.Int, d int64) *big.Int { return new(big.Int).Add(x, big.NewInt(d)) }
	ks := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(-1),
		big.NewInt(1<<38 - 1), big.NewInt(-(1<<38 - 1)),
		half, add(half, 1), add(n, -1), n, add(n, 5), new(big.Int).Neg(add(n, 3)),
	}
	for i := 0; i < 8; i++ {
		k, err := rand.Int(rand.Reader, n)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			k.Neg(k)
		}
		ks = append(ks, k)
	}
	for _, k := range ks {
		want := new(big.Int).Mul(k, big.NewInt(m))
		want.Mod(want, n)
		got, err := sk.Decrypt(sk.MulPlain(a, k))
		if err != nil {
			t.Fatal(err)
		}
		textbook, err := sk.Decrypt(&Ciphertext{C: new(big.Int).Exp(a.C, new(big.Int).Mod(k, n), sk.N2)})
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 || textbook.Cmp(want) != 0 {
			t.Fatalf("MulPlain(k=%v): got %v, textbook %v, want %v", k, got, textbook, want)
		}
	}
}

// Property: Dec(Enc(a) ⊕ Enc(b)) = a + b for random uint32 plaintexts.
func TestHomomorphismProperty(t *testing.T) {
	sk := testKey(t)
	f := func(a, b uint32) bool {
		ca, err1 := sk.Encrypt(rand.Reader, big.NewInt(int64(a)))
		cb, err2 := sk.Encrypt(rand.Reader, big.NewInt(int64(b)))
		if err1 != nil || err2 != nil {
			return false
		}
		got, err := sk.Decrypt(sk.Add(ca, cb))
		if err != nil {
			return false
		}
		return got.Int64() == int64(a)+int64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFloatEncodingRoundTrip(t *testing.T) {
	sk := testKey(t)
	for _, v := range []float64{0, 1.5, -2.75, 1e-6, -123.456, 3e5} {
		ct, err := sk.EncryptFloat(rand.Reader, v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.DecryptFloat(ct)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-v) > 1e-9*(1+math.Abs(v)) {
			t.Fatalf("float round trip %v -> %v", v, got)
		}
	}
}

// Property: float homomorphism with negatives, Dec(Enc(a)+Enc(b)) ≈ a+b.
func TestFloatHomomorphismProperty(t *testing.T) {
	sk := testKey(t)
	f := func(ai, bi int32) bool {
		a := float64(ai) / 1000
		b := float64(bi) / 1000
		ca, _ := sk.EncryptFloat(rand.Reader, a)
		cb, _ := sk.EncryptFloat(rand.Reader, b)
		got, err := sk.DecryptFloat(sk.Add(ca, cb))
		if err != nil {
			return false
		}
		return math.Abs(got-(a+b)) < 1e-8*(1+math.Abs(a+b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMulPlainFloatScaleLevel(t *testing.T) {
	sk := testKey(t)
	ct, _ := sk.EncryptFloat(rand.Reader, 2.5)
	prod, err := sk.MulPlainFloat(ct, -4.0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.DecryptFloatAtScale(prod, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-(-10.0)) > 1e-8 {
		t.Fatalf("2.5 × -4 = %v", got)
	}
	if _, err := sk.DecryptFloatAtScale(prod, 0); err == nil {
		t.Fatal("level 0 must error")
	}
}

func TestVectorHelpers(t *testing.T) {
	sk := testKey(t)
	a := []float64{1, -2, 3.5}
	b := []float64{0.5, 2, -1.5}
	ca, err := sk.EncryptVec(rand.Reader, a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := sk.EncryptVec(rand.Reader, b)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sk.DecryptVec(sk.AddVec(ca, cb))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, 0, 2}
	for i := range want {
		if math.Abs(sum[i]-want[i]) > 1e-8 {
			t.Fatalf("vector sum = %v", sum)
		}
	}
}

func TestAddPlainFloat(t *testing.T) {
	sk := testKey(t)
	ct, _ := sk.EncryptFloat(rand.Reader, 1.25)
	sum, err := sk.AddPlainFloat(ct, -3.5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.DecryptFloat(sum)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-(-2.25)) > 1e-9 {
		t.Fatalf("AddPlainFloat = %v", got)
	}
}

func TestErrors(t *testing.T) {
	sk := testKey(t)
	if _, err := GenerateKey(rand.Reader, 32); err == nil {
		t.Fatal("tiny key must error")
	}
	if _, err := sk.Encrypt(rand.Reader, big.NewInt(-1)); err == nil {
		t.Fatal("negative plaintext must error")
	}
	if _, err := sk.Encrypt(rand.Reader, new(big.Int).Set(sk.N)); err == nil {
		t.Fatal("plaintext ≥ n must error")
	}
	if _, err := sk.Decrypt(&Ciphertext{C: big.NewInt(0)}); err == nil {
		t.Fatal("zero ciphertext must error")
	}
	if _, err := sk.Decrypt(nil); err == nil {
		t.Fatal("nil ciphertext must error")
	}
	// Fixed-point encoding refuses what it cannot represent instead of
	// panicking (NaN), zeroing (±Inf) or wrapping mod n (|v|·Scale > n/2).
	limit, _ := new(big.Float).Quo(new(big.Float).SetInt(new(big.Int).Rsh(sk.N, 1)), big.NewFloat(Scale)).Float64()
	for _, c := range []struct {
		v     float64
		level int
		want  error
	}{
		{math.NaN(), 1, ErrNonFinite},
		{math.Inf(1), 1, ErrNonFinite},
		{math.Inf(-1), 2, ErrNonFinite},
		{2 * limit, 1, ErrOutOfRange},
		{-2 * limit, 1, ErrOutOfRange},
		{math.MaxFloat64, 1, ErrOutOfRange},
		{2 * limit / Scale, 2, ErrOutOfRange},
	} {
		if _, err := sk.EncodeVec([]float64{0, c.v}, c.level); !errors.Is(err, c.want) || !strings.Contains(err.Error(), "element 1") {
			t.Fatalf("EncodeVec(%v, level %d) = %v, want %v naming element 1", c.v, c.level, err, c.want)
		}
	}
	if _, err := sk.EncryptFloat(rand.Reader, math.NaN()); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("EncryptFloat(NaN) = %v, want ErrNonFinite", err)
	}
	if _, err := sk.EncodeVec([]float64{1}, 0); err == nil {
		t.Fatal("level 0 must error")
	}
	// The extremes of the range still round-trip.
	for _, v := range []float64{limit / 2, -limit / 2} {
		m, err := sk.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := sk.Decode(m); math.Abs(got-v) > 1e-9*math.Abs(v) {
			t.Fatalf("Decode(Encode(%g)) = %g", v, got)
		}
	}
}

func TestAddVecLengthMismatchPanics(t *testing.T) {
	sk := testKey(t)
	a, _ := sk.EncryptVec(rand.Reader, []float64{1})
	b, _ := sk.EncryptVec(rand.Reader, []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sk.AddVec(a, b)
}

// CRT decryption must agree with the textbook single-exponentiation path
// u = c^λ mod n², m = L(u)·μ mod n, with λ and μ derived from p and q.
func TestCRTMatchesNaiveDecryption(t *testing.T) {
	sk := testKey(t)
	n := sk.N
	pm1 := new(big.Int).Sub(sk.fp.p, big.NewInt(1))
	qm1 := new(big.Int).Sub(sk.fq.p, big.NewInt(1))
	lambda := new(big.Int).Mul(pm1, qm1)
	lambda.Quo(lambda, new(big.Int).GCD(nil, nil, pm1, qm1))
	// With g = n+1: L(g^λ mod n²) = λ mod n, so μ = λ⁻¹ mod n.
	mu := new(big.Int).ModInverse(new(big.Int).Mod(lambda, n), n)
	ms := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(n, big.NewInt(1)), new(big.Int).Rsh(n, 1)}
	for i := int64(0); i < 20; i++ {
		ms = append(ms, big.NewInt(1000003*(i+1)))
		m, err := rand.Int(rand.Reader, n)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	for _, m := range ms {
		ct, err := sk.Encrypt(rand.Reader, m)
		if err != nil {
			t.Fatal(err)
		}
		u := new(big.Int).Exp(ct.C, lambda, sk.N2)
		u.Sub(u, big.NewInt(1))
		u.Div(u, n)
		u.Mul(u, mu)
		u.Mod(u, n)

		got, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(u) != 0 || got.Cmp(m) != 0 {
			t.Fatalf("CRT %v vs naive %v vs plaintext %v", got, u, m)
		}
	}
}

func BenchmarkDecryptCRT(b *testing.B) {
	sk, err := GenerateKey(rand.Reader, 1024)
	if err != nil {
		b.Fatal(err)
	}
	ct, err := sk.Encrypt(rand.Reader, big.NewInt(123456789))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncrypt(b *testing.B) {
	sk, err := GenerateKey(rand.Reader, 1024)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Encrypt(rand.Reader, big.NewInt(987654321)); err != nil {
			b.Fatal(err)
		}
	}
}

var mulPlainSink *Ciphertext

// BenchmarkMulPlain times one plaintext scalar multiplication at the
// paper's 1024-bit key with the scalar Algorithm 3's step 4 produces: a
// 38-bit magnitude, scale·x at Scale = 2^40, of either sign.
func BenchmarkMulPlain(b *testing.B) {
	sk, err := GenerateKey(rand.Reader, 1024)
	if err != nil {
		b.Fatal(err)
	}
	ct, err := sk.Encrypt(rand.Reader, big.NewInt(987654321))
	if err != nil {
		b.Fatal(err)
	}
	const mag = 1<<38 - 12345
	for _, c := range []struct {
		name string
		k    int64
	}{{"pos", mag}, {"neg", -mag}} {
		b.Run(c.name, func(b *testing.B) {
			k := big.NewInt(c.k)
			for i := 0; i < b.N; i++ {
				mulPlainSink = sk.MulPlain(ct, k)
			}
		})
	}
}

func TestBytes(t *testing.T) {
	sk := testKey(t)
	if got := sk.Bytes(); got < testBits/4-2 || got > testBits/4+2 {
		t.Fatalf("ciphertext bytes = %d, expected ≈ %d", got, testBits/4)
	}
}
