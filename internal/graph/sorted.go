package graph

// Merge-based set algebra over sorted adjacency rows. The CSR invariant
// (every Neighbors row ascending, duplicate-free) makes common-neighbour
// counting a linear merge instead of a hash probe per element — the
// memory-layout-conscious formulation the seed pipeline uses.

// CountCommon returns |a ∩ b| for two ascending, duplicate-free int32
// slices (typically two adjacency rows). It never allocates. Nil and empty
// slices are valid and count as empty sets — the same contract the
// bit-parallel kernels (bitset.AndCount) honour for word slices, pinned by
// the differential tests in sorted_test.go.
func CountCommon(a, b []int32) int {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// IntersectTo appends a ∩ b (both ascending, duplicate-free) to dst and
// returns the extended slice. Nil and empty inputs are valid empty sets.
//
// In-place intersection via dst = a[:0] or dst = b[:0] is supported: the
// k-th common element is appended only after at least k elements of each
// input have been consumed, so every write lands on an index the merge has
// already read past (and cap(dst) suffices, so append never reallocates
// away from the shared backing). Any other overlap between dst's writable
// region and either input — a dst with nonzero length sharing a backing
// array, or an offset sub-slice — is undefined: appends would clobber
// elements the merge has yet to read.
func IntersectTo(dst []int32, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}
