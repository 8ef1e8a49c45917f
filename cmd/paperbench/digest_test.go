package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"runtime"
	"testing"

	"pmuleak/internal/experiments"
)

// TestGoldenDigest pins the serial baseline report across commits: its
// SHA-256 must equal testdata/golden_quick.sha256, the digest of
// `paperbench -quick -jobs 1 -stats=false` stdout. The other golden
// tests compare variants within one build, so a change that moves every
// variant's output the same way passes them; this one does not. Update
// the digest only for a change meant to alter the report.
func TestGoldenDigest(t *testing.T) {
	if goldenScale != experiments.Quick {
		t.Skip("golden scale is trimmed in this build (race); the digest is recorded at Quick scale")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64; %s fuses multiply-adds and rounds differently", runtime.GOARCH)
	}
	want, err := os.ReadFile("testdata/golden_quick.sha256")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(goldenBaseline(t))
	if got := hex.EncodeToString(sum[:]); got != string(bytes.TrimSpace(want)) {
		t.Fatalf("report digest %s, want %s: the -quick report changed", got, bytes.TrimSpace(want))
	}
}
