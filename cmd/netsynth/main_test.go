package main

import (
	"math"
	"strings"
	"testing"
)

func TestParseBytes(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int64
	}{
		{"", 0},
		{"0", 0},
		{"4096", 4096},
		{"64K", 64 << 10},
		{"64k", 64 << 10},
		{"3M", 3 << 20},
		{"2G", 2 << 30},
		{"8589934591G", 8589934591 << 30},
		{"9223372036854775807", math.MaxInt64},
	} {
		got, err := parseBytes(c.in)
		if err != nil || got != c.want {
			t.Errorf("parseBytes(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
	for _, in := range []string{
		"8589934592G",         // 2^63: wrapped to MinInt64
		"17179869185G",        // wrapped to 1 GiB
		"9007199254740992K",   // 2^63 bytes
		"9223372036854775808", // beyond int64 before any suffix
		"-1",
		"-64M",
		"G",
		"12T",
		"1.5G",
	} {
		got, err := parseBytes(in)
		if err == nil {
			t.Errorf("parseBytes(%q) = %d, want an error", in, got)
		} else if !strings.Contains(err.Error(), `"`+in+`"`) {
			t.Errorf("parseBytes(%q) error %q does not quote the value", in, err)
		}
	}
}
