package tasks

import "math/rand"

// Task payloads are math/rand's seeded streams, byte for byte: runnerData
// is rand.New(rand.NewSource(seed)).Read and PatternRun draws Uint32s from
// the same source. Seeding that source fills all 607 words of its register
// with 1,841 serial Lehmer steps, while a benchmark payload reads at most
// 156 draws. jumpSource yields the same draws from only the words they
// read.
//
// math/rand's additive lagged-Fibonacci generator (Mitchell and Reeds)
// seeds register word i as
//
//	vec[i] = x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ rngCooked[i]
//
// where x[j] = s·48271^j mod (2³¹−1) is the Lehmer sequence from the
// normalised seed s. Draw k is vec[333−k] + vec[606−k], stored back into
// vec[333−k]. For k < 273 both words still hold their seeded values, so
// the draw is a function of the seed alone: six multiply-mods against a
// table of the powers of 48271. From draw 273 on, the tap reads a word
// that draw k−273 wrote; there the source hands over to math/rand's own,
// advanced past the draws already served.
const (
	rngLen = 607 // register words
	rngTap = 273 // lag between the feed and the tap
	// jumpDraws is how many draws jump-ahead serves: draw rngTap's tap
	// reads the word draw 0 wrote.
	jumpDraws = rngTap

	lehmerMod  = 1<<31 - 1 // 2³¹−1, a Mersenne prime
	lehmerMul  = 48271
	seedOfZero = 89482311 // math/rand's stand-in for a seed ≡ 0
)

// regWord is what seeding register word i takes: the powers of 48271
// for its three Lehmer steps, and math/rand's rngCooked[i].
type regWord struct {
	pow    [3]uint64 // 48271^(21+3i+t) mod (2³¹−1), t = 0, 1, 2
	cooked uint64
}

var register [rngLen]regWord

func init() {
	p := uint64(1)
	for range 21 {
		p = mulMod(p, lehmerMul)
	}
	for i := range register {
		for t := range register[i].pow {
			register[i].pow[t] = p
			p = mulMod(p, lehmerMul)
		}
	}
	// rngCooked is unexported: recover it from seed 1's first 607 draws,
	// which fix that seed's register. Draws 273–606 each add one seeded
	// word to the sum draw k−273 stored; draws 0–272 add two seeded words,
	// one of which the first pass has already recovered.
	src := rand.NewSource(1).(rand.Source64)
	var out, vec [rngLen]uint64
	for k := range out {
		out[k] = src.Uint64()
	}
	for k := rngTap; k < rngLen; k++ {
		vec[(rngLen-rngTap-1-k+rngLen)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		vec[rngLen-rngTap-1-k] = out[k] - vec[rngLen-1-k]
	}
	for i := range vec {
		// cooked is still zero, so seedWord yields seed 1's Lehmer terms.
		register[i].cooked = vec[i] ^ seedWord(1, i)
	}
}

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹, folding the product's
// high bits onto its low ones.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&lehmerMod + p>>31
	if r >= lehmerMod {
		r -= lehmerMod
	}
	return r
}

// seedWord is register word i as seeding from the normalised seed s
// leaves it.
func seedWord(s uint64, i int) uint64 {
	w := &register[i]
	return mulMod(s, w.pow[0])<<40 ^ mulMod(s, w.pow[1])<<20 ^ mulMod(s, w.pow[2]) ^ w.cooked
}

// jumpSource is a rand.Source whose draws equal rand.NewSource's for the
// same seed.
type jumpSource struct {
	seed int64
	s    uint64 // normalised seed: the Lehmer sequence's start
	k    int    // draws served
	// rest is math/rand's own source, advanced jumpDraws, once k reaches
	// jumpDraws.
	rest rand.Source
}

func newJumpSource(seed int64) *jumpSource {
	j := new(jumpSource)
	j.Seed(seed)
	return j
}

// Seed restarts the stream at seed, normalised as math/rand does.
func (j *jumpSource) Seed(seed int64) {
	s := seed % lehmerMod
	if s < 0 {
		s += lehmerMod
	}
	if s == 0 {
		s = seedOfZero
	}
	*j = jumpSource{seed: seed, s: uint64(s)}
}

func (j *jumpSource) Int63() int64 {
	if k := j.k; k < jumpDraws {
		j.k++
		return int64((seedWord(j.s, rngLen-rngTap-1-k) + seedWord(j.s, rngLen-1-k)) &^ (1 << 63))
	}
	if j.rest == nil {
		j.rest = rand.NewSource(j.seed)
		for range jumpDraws {
			j.rest.Int63()
		}
	}
	return j.rest.Int63()
}
