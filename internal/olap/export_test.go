package olap

import "anydb/internal/storage"

// KeyFilterOf builds the filter a hash join hands its probe-side scan
// when its build side holds keys, over the probe key columns cols.
func KeyFilterOf(cols []string, keys [][]int64) *KeyFilter {
	var ht joinTable
	for _, k := range keys {
		var jk joinKey
		copy(jk[:], k)
		ht.insert(jk, storage.RowRef{})
	}
	return newKeyFilter(cols, &ht)
}
