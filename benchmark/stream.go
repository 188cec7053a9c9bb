package main

import (
	"wincm/internal/rng"
)

// Values carry their key in the low keyBits bits and a nonce above, so any
// reply can be checked against the key it answers without remembering what
// was written.
const (
	keyBits = 24
	keyMask = 1<<keyBits - 1
)

func encodeVal(key int, nonce uint32) int64 { return int64(nonce)<<keyBits | int64(key) }
func valKey(v int64) int                    { return int(v & keyMask) }
func valNonce(v int64) uint32               { return uint32(v >> keyBits) }

// op is one pre-generated command. key is the GET/SET key, the first key of
// an MSET or whole-group MGET, the SCAN lower bound, or — for an MGET of
// independent keys — the offset of its mkeys keys in stream.extra.
type op struct {
	class uint8
	whole bool
	key   int32
	nonce uint32
}

// stream is one client's command sequence, generated before the clock
// starts and cycled during the run.
type stream struct {
	ops   []op
	extra []int32
}

// keyspace is the split of [0, keys) the verifier relies on: the group
// range [0, group) is written only by MSET, one aligned group of mkeys keys
// and one nonce at a time; the single range [group, keys) is written only
// by SET. Every key is preloaded and nothing deletes, so every read must
// hit.
type keyspace struct {
	keys, group, mkeys, span int
	zSingle, zGroup, zScan   *rng.Zipf
}

func newKeyspace(s spec) *keyspace {
	ks := &keyspace{keys: s.keys, group: s.groupKeys(), mkeys: s.mkeys, span: s.span}
	ks.zSingle = rng.NewZipf(uint64(ks.keys-ks.group), s.theta)
	if ks.group > 0 {
		ks.zGroup = rng.NewZipf(uint64(ks.group/ks.mkeys), s.theta)
	}
	ks.zScan = rng.NewZipf(uint64(ks.keys-ks.span+1), s.theta)
	return ks
}

func (ks *keyspace) singleKey(r *rng.Rand) int32 {
	return int32(ks.group + int(ks.zSingle.Next(r)))
}

func (ks *keyspace) groupStart(r *rng.Rand) int32 {
	return int32(int(ks.zGroup.Next(r)) * ks.mkeys)
}

// clientSeed separates the clients' generators under one master seed.
func clientSeed(seed uint64, client int) uint64 {
	return seed*0x9e3779b97f4a7c15 + uint64(client)*0xbf58476d1ce4e5b9 + 1
}

// genStream draws n commands for one client from the spec's mix. The same
// (spec, seed, client) always gives the same stream.
func genStream(s spec, ks *keyspace, seed uint64, client, n int) *stream {
	r := rng.New(clientSeed(seed, client))
	frac := s.mixFractions()
	var cum [numClasses]float64
	acc := 0.0
	for i, f := range frac {
		acc += f
		cum[i] = acc
	}
	st := &stream{ops: make([]op, n)}
	for i := range st.ops {
		p := r.Float64()
		cl := numClasses - 1
		for c := 0; c < numClasses; c++ {
			if p < cum[c] {
				cl = c
				break
			}
		}
		// The last class with weight absorbs a p that rounding pushed past
		// the final threshold.
		for frac[cl] == 0 {
			cl--
		}
		o := op{class: uint8(cl)}
		switch cl {
		case clGet:
			if ks.group > 0 && r.Bool(0.5) {
				o.key = ks.groupStart(r) + int32(r.Intn(ks.mkeys))
			} else {
				o.key = ks.singleKey(r)
			}
		case clSet:
			o.key = ks.singleKey(r)
			o.nonce = uint32(r.Uint64())
		case clMGet:
			if ks.group > 0 && r.Bool(0.5) {
				o.whole = true
				o.key = ks.groupStart(r)
			} else {
				o.key = int32(len(st.extra))
				for j := 0; j < ks.mkeys; j++ {
					st.extra = append(st.extra, ks.singleKey(r))
				}
			}
		case clMSet:
			o.key = ks.groupStart(r)
			o.nonce = uint32(r.Uint64())
		case clScan:
			o.key = int32(ks.zScan.Next(r))
		}
		st.ops[i] = o
	}
	return st
}

// mgetKeys writes the keys of an MGET into dst[:mkeys].
func (st *stream) mgetKeys(o *op, ks *keyspace, dst []int64) {
	if o.whole {
		for j := 0; j < ks.mkeys; j++ {
			dst[j] = int64(o.key) + int64(j)
		}
		return
	}
	for j, k := range st.extra[o.key : int(o.key)+ks.mkeys] {
		dst[j] = int64(k)
	}
}

// msetPairs writes the pairs of an MSET into keys[:mkeys], vals[:mkeys].
func msetPairs(o *op, ks *keyspace, keys, vals []int64) {
	for j := 0; j < ks.mkeys; j++ {
		k := int(o.key) + j
		keys[j] = int64(k)
		vals[j] = encodeVal(k, o.nonce)
	}
}

// hash is an FNV-1a digest of the whole stream: two runs sent the same
// commands exactly when their stream hashes agree.
func (st *stream) hash() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * prime
			v >>= 8
		}
	}
	for i := range st.ops {
		o := &st.ops[i]
		w := uint64(o.class)
		if o.whole {
			w |= 0x100
		}
		mix(w)
		mix(uint64(uint32(o.key)))
		mix(uint64(o.nonce))
	}
	for _, k := range st.extra {
		mix(uint64(uint32(k)))
	}
	return h
}

// classCounts tallies the stream's realised mix.
func (st *stream) classCounts() [numClasses]int {
	var n [numClasses]int
	for i := range st.ops {
		n[st.ops[i].class]++
	}
	return n
}

// ofClass returns up to n commands of one class, in stream order: the
// homogeneous input of one differential-replay cell.
func (st *stream) ofClass(class, n int) []op {
	out := make([]op, 0, n)
	for i := range st.ops {
		if int(st.ops[i].class) == class {
			out = append(out, st.ops[i])
			if len(out) == n {
				break
			}
		}
	}
	return out
}
