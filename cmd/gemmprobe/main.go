// Command gemmprobe reports the GEMM dispatch tiers this CPU supports,
// the tier the process dispatched to, and the detected CPU features.
// CI's kernel-tier matrix runs it *before* exporting MPTWINO_GEMM_KERNEL
// (forcing an unavailable tier panics at init by design), using -require
// to skip legs the runner cannot execute:
//
//	go run ./cmd/gemmprobe                  # print tiers/active/cpu
//	go run ./cmd/gemmprobe -require avx2    # exit 0 iff the avx2 tier exists
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mptwino/internal/tensor"
)

func main() {
	require := flag.String("require", "", "exit 0 iff this build can run this dispatch tier here")
	flag.Parse()
	tiers := tensor.GemmKernels()
	fmt.Printf("tiers: %s\n", strings.Join(tiers, " "))
	fmt.Printf("active: %s\n", tensor.GemmKernel())
	fmt.Printf("cpu: %s\n", tensor.CPUFeatures())
	if *require == "" {
		return
	}
	for _, tier := range tiers {
		if tier == *require {
			return
		}
	}
	fmt.Fprintf(os.Stderr, "gemmprobe: %q is not a GEMM tier this build can run here (available: %s)\n",
		*require, strings.Join(tiers, "|"))
	os.Exit(1)
}
