package main

import (
	"strings"
	"testing"
)

func TestParseAllocs(t *testing.T) {
	profile := `heap profile: 1: 2 [3: 4] @ heap/1048576
1: 2 [3: 4] @ 0x1 0x2

# runtime.MemStats
# Alloc = 100
# TotalAlloc = 123456
# Sys = 999
# Lookups = 0
# Mallocs = 789
# Frees = 700
`
	a, err := parseAllocs(strings.NewReader(profile))
	if err != nil {
		t.Fatal(err)
	}
	if a.bytes != 123456 || a.objects != 789 {
		t.Errorf("parseAllocs = %+v, want 123456 B in 789 objects", a)
	}
	if _, err := parseAllocs(strings.NewReader("# Alloc = 100\n")); err == nil {
		t.Error("a profile without TotalAlloc and Mallocs parsed without error")
	}
}
