package main

import (
	"fmt"
	"os"
	"runtime/pprof"
)

// stopProfile finishes the -cpuprofile output. It does nothing until
// startProfile arms it.
var stopProfile = func() {}

// startProfile starts a CPU profile into path (none when path is
// empty) and arms stopProfile to finish it.
func startProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	stopProfile = func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
		}
	}
	return nil
}

// exit finishes the profile before terminating, so a run that ends in
// an error exit still leaves a complete profile.
func exit(code int) {
	stopProfile()
	os.Exit(code)
}
