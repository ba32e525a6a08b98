package atlas

// bitset is a fixed-size set of indices in [0, n), one bit each: the
// State's link, node and lock-chain flags. At 50k ASes the per-entry
// link state is ~31 KB as bits, against ~250 KB as bools, so the reads
// recompute and reach make for every neighbor stay in L1.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) has(i int32) bool { return b[i>>6]&(1<<(i&63)) != 0 }

func (b bitset) set(i int32) { b[i>>6] |= 1 << (i & 63) }

func (b bitset) unset(i int32) { b[i>>6] &^= 1 << (i & 63) }

// put sets i when v holds and clears it otherwise.
func (b bitset) put(i int32, v bool) {
	if v {
		b.set(i)
	} else {
		b.unset(i)
	}
}
