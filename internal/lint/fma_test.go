package lint_test

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"testing"
)

// fusedArchs are the targets whose Go compiler fuses x*y + z into one
// multiply-add, which rounds once where amd64 rounds twice. amd64 never
// fuses, so it is not among them.
var fusedArchs = []string{"arm64", "ppc64le", "s390x", "riscv64", "loong64"}

// reportPath lists the packages whose floating point decides report
// bytes: the detection and extraction path, the trace generator and
// sampler it is tested on, the wire codec, and the experiments.
var reportPath = []string{
	"anomalyx/internal/histogram",
	"anomalyx/internal/detector",
	"anomalyx/internal/core",
	"anomalyx/internal/prefilter",
	"anomalyx/internal/mining/...",
	"anomalyx/internal/stats",
	"anomalyx/internal/tracegen",
	"anomalyx/internal/wire/...",
	"anomalyx/internal/experiments",
}

// fusedOp matches one fused multiply-add instruction line of the
// compiler's -S listing and captures its source position and mnemonic:
// FMADDD, FMSUBD, FNMADDD, FNMSUBD and their single-precision and
// unsuffixed forms.
var fusedOp = regexp.MustCompile(`\((\S+\.go:\d+)\)\s+(FN?M(?:ADD|SUB)[DS]?)\s`)

// TestNoFusedMultiplyAdd cross-compiles the report path for every
// fusing architecture and fails on each fused multiply-add, naming its
// source line. The Go spec lets a compiler fuse x*y + z unless the
// product is converted explicitly, as in float64(x*y) + z; a fused sum
// can differ in its last bit, and so a report digest, from amd64's.
// Only the toolchain's cross-compiler is needed, no emulator.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the report path for five architectures")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	for _, arch := range fusedArchs {
		args := []string{"build"}
		for _, p := range reportPath {
			args = append(args, "-gcflags="+p+"=-S")
		}
		cmd := exec.Command(goBin, append(args, reportPath...)...)
		cmd.Env = append(os.Environ(), "GOARCH="+arch, "GOOS=linux", "CGO_ENABLED=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=%s go build: %v\n%s", arch, err, tail(out))
		}
		found := 0
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if m := fusedOp.FindStringSubmatch(sc.Text()); m != nil {
				t.Errorf("%s: %s on %s: round the product explicitly, float64(x*y) + z", m[1], m[2], arch)
				found++
			}
		}
		// A build that prints no listing would pass vacuously.
		if found == 0 && !bytes.Contains(out, []byte("anomalyx/internal/histogram.KL STEXT")) {
			t.Fatalf("GOARCH=%s: the listing lacks histogram.KL; was -S applied?\n%s", arch, tail(out))
		}
	}
}

// tail returns the last lines of a command's output.
func tail(out []byte) []byte {
	if len(out) > 2000 {
		return out[len(out)-2000:]
	}
	return out
}
