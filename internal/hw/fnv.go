package hw

// FNV-1a (64-bit): the one hash behind the determinism checks — trace
// hashes, the fault injector's and the cluster's replay hashes, and the
// distributed trace IDs and header checksums. Words fold in as eight
// little-endian bytes, so a hash is a pure function of the word stream.

// FNVOffset is the FNV-1a offset basis: the hash of nothing.
const FNVOffset uint64 = 14695981039346656037

const fnvPrime uint64 = 1099511628211

// FNVByte folds one byte into h.
func FNVByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

// FNV folds each word into h, low byte first.
func FNV(h uint64, words ...uint64) uint64 {
	for _, w := range words {
		for i := 0; i < 8; i++ {
			h = FNVByte(h, byte(w>>(8*i)))
		}
	}
	return h
}
