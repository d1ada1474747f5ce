package colfile

import "testing"

// SeedFiles hands the fuzz seed files to the external test package, where
// FuzzOpen lives (it drives tql, which imports this package).
func SeedFiles(f *testing.F) [][]byte { return fuzzSeeds(f) }

// HostileDictFile is the duplicate-and-unused-dictionary seed on its own.
var HostileDictFile = hostileDictFile
