package main

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// The benchmark makes all of its inputs itself, from --seed, with the
// generators in this file. None of them comes from the program under
// test, so a change to the program cannot change the inputs it is
// measured on.

// splitmix is the SplitMix64 generator.
type splitmix struct{ s uint64 }

func newSplitmix(seed uint64, stream uint64) *splitmix {
	return &splitmix{s: mix64(seed ^ mix64(stream+0x632be59bd9b4e019))}
}

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// below returns a uniform value in [0, n).
func (r *splitmix) below(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

func (r *splitmix) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// mix64 is the SplitMix64 finalizer, a bijection on 64-bit words.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unmix64 inverts mix64, so a key seen in a Range can be traced back to
// the index and class it was made from.
func unmix64(x uint64) uint64 {
	x ^= x>>31 ^ x>>62
	x *= invMul2
	x ^= x>>27 ^ x>>54
	x *= invMul1
	x ^= x>>30 ^ x>>60
	return x
}

var (
	invMul1 = modInverse(0xbf58476d1ce4e5b9)
	invMul2 = modInverse(0x94d049bb133111eb)
)

// modInverse returns the inverse of odd a modulo 2^64 (Newton's method).
func modInverse(a uint64) uint64 {
	x := a
	for i := 0; i < 6; i++ {
		x *= 2 - a*x
	}
	return x
}

// zipf draws ranks in [0, n) with P(rank k) ∝ 1/(k+1)^s, by Hörmann's
// rejection-inversion method: constant memory, no table over n.
type zipf struct {
	n, s             float64
	hX1, hN, shorten float64
}

func newZipf(n uint64, s float64) *zipf {
	z := &zipf{n: float64(n), s: s}
	z.hX1 = z.hInt(1.5) - 1
	z.hN = z.hInt(z.n + 0.5)
	z.shorten = 2 - z.hIntInv(z.hInt(2.5)-z.h(2))
	return z
}

func (z *zipf) h(x float64) float64 { return math.Exp(-z.s * math.Log(x)) }

func (z *zipf) hInt(x float64) float64 {
	lx := math.Log(x)
	return expm1x((1-z.s)*lx) * lx
}

func (z *zipf) hIntInv(x float64) float64 {
	t := x * (1 - z.s)
	if t < -1 {
		t = -1
	}
	return math.Exp(log1px(t) * x)
}

func expm1x(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x*0.5*(1+x/3*(1+0.25*x))
}

func log1px(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x*(0.5-x*(1.0/3-0.25*x))
}

func (z *zipf) next(r *splitmix) uint64 {
	for {
		u := z.hN + r.float64()*(z.hX1-z.hN)
		x := z.hIntInv(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		} else if k > z.n {
			k = z.n
		}
		if k-x <= z.shorten || u >= z.hInt(k+0.5)-z.h(k) {
			return uint64(k) - 1
		}
	}
}

// shuffledKinds returns counts[0] zeros, counts[1] ones, ... in a seeded
// random order: every round and every seed runs exactly the same number
// of operations of each kind.
func shuffledKinds(r *splitmix, counts ...int) []uint8 {
	var n int
	for _, c := range counts {
		n += c
	}
	out := make([]uint8, 0, n)
	for k, c := range counts {
		for i := 0; i < c; i++ {
			out = append(out, uint8(k))
		}
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.below(uint64(i + 1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Byte-string keys and values for the store and the service.

const valLen = 32

const hexDigits = "0123456789abcdef"

// appendKey writes the key of index idx: eight hex digits.
func appendKey(dst []byte, idx uint32) []byte {
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[idx>>uint(shift)&15])
	}
	return dst
}

// appendValue writes the value the benchmark stores for key idx at write
// sequence seq: the key index, the sequence and a filler derived from
// both, valLen bytes in all. A stale or foreign value never equals it.
func appendValue(dst []byte, idx uint32, seq uint64) []byte {
	dst = binary.BigEndian.AppendUint32(dst, idx)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	f := mix64(uint64(idx)<<32 ^ seq)
	for i := 4 + 8; i < valLen; i++ {
		dst = append(dst, byte(f))
		f = f>>8 | f<<56
	}
	return dst
}
