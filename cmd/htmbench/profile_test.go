package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestCPUProfileWrittenOnStop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := startProfile(path); err != nil {
		t.Fatal(err)
	}
	stopProfile()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// pprof profiles are gzip-compressed protocol buffers.
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Errorf("profile is not gzip-compressed (%d bytes)", len(b))
	}
}
