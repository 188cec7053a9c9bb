package main

// Reply verification. Every check works from the request and the reply
// alone: values name their key, all keys are preloaded, and the group range
// is only ever written one whole group and one nonce at a time, so a
// multi-key read that shows two nonces inside one group saw a torn
// cross-shard snapshot.

// checkGet verifies a single-key read.
func (ks *keyspace) checkGet(key int, val int64, present bool) bool {
	return present && valKey(val) == key
}

// checkMGet verifies a multi-key read; whole says the keys are one aligned
// group, which must then carry a single nonce.
func (ks *keyspace) checkMGet(keys, vals []int64, present []bool, whole bool) bool {
	if len(vals) != len(keys) || len(present) != len(keys) {
		return false
	}
	for i, k := range keys {
		if !present[i] || valKey(vals[i]) != int(k) {
			return false
		}
		if whole && valNonce(vals[i]) != valNonce(vals[0]) {
			return false
		}
	}
	return true
}

// checkScan verifies a range read of [lo, hi): the keys are exactly the
// preloaded keys of the range in ascending order, each value names its key,
// and every group that lies wholly inside the range shows one nonce.
func (ks *keyspace) checkScan(lo, hi int, keys, vals []int64) bool {
	end := hi
	if end > ks.keys {
		end = ks.keys
	}
	if len(keys) != end-lo || len(vals) != len(keys) {
		return false
	}
	for i, k64 := range keys {
		k := int(k64)
		if k != lo+i || k < lo || k >= hi || valKey(vals[i]) != k {
			return false
		}
		if k >= ks.group {
			continue
		}
		// Compare with the group's first key when the reply holds it and
		// the group's last key is inside the range too.
		first := k / ks.mkeys * ks.mkeys
		if first >= lo && first+ks.mkeys <= end && valNonce(vals[i]) != valNonce(vals[first-lo]) {
			return false
		}
	}
	return true
}
