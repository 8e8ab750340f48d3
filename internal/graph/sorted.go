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
