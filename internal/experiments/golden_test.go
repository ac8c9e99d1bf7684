package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The golden tests regenerate each experiment in-process at the
// recorded settings (scale 0.5, seed 1) and diff the rendered text
// against the checked-in <name>_output.txt files at the repository
// root. Because every experiment writes results into index-addressed
// slots and derives all randomness from (Seed, cell), the regenerated
// text is byte-identical for any worker count; only wall-clock lines
// and the Table 3 runtime column are environment-dependent, and the
// comparison masks exactly those.

// goldenOpts are the settings the checked-in files were produced with
// (`go run ./cmd/experiments -exp all`).
func goldenOpts() Options {
	return Options{Scale: 0.5, Seed: 1}
}

var timingLine = regexp.MustCompile(`^-- .* done in .*$`)

// normalizeGolden drops the wall-clock footer lines and trailing blank
// lines, which are the only parts of the command output that are not a
// pure function of (experiment, scale, seed).
func normalizeGolden(s string) string {
	var out []string
	for _, ln := range strings.Split(s, "\n") {
		if timingLine.MatchString(ln) {
			continue
		}
		out = append(out, ln)
	}
	return strings.TrimRight(strings.Join(out, "\n"), "\n")
}

var decimalToken = regexp.MustCompile(`^\d+\.\d+$`)

// table3KeyColumns counts Table 3's leading columns that do not hold
// runtimes: the task and the two sizes.
const table3KeyColumns = 3

// maskRuntimes rewrites the Table 3 section so the mean-seconds columns
// (machine-dependent) compare equal: decimal tokens become '#', so do
// the dashed rules under the runtime columns (their width follows the
// widest runtime), and runs of whitespace collapse. Task names, sizes
// and the rules under them survive the masking and stay compared.
func maskRuntimes(s string) string {
	lines := strings.Split(s, "\n")
	in := false
	for i, ln := range lines {
		if strings.HasPrefix(ln, "Table 3:") {
			in = true
			continue
		}
		if !in {
			continue
		}
		fields := strings.Fields(ln)
		rule := len(fields) > 0 && strings.Trim(ln, " -") == ""
		for j, f := range fields {
			if decimalToken.MatchString(f) || (rule && j >= table3KeyColumns) {
				fields[j] = "#"
			}
		}
		lines[i] = strings.Join(fields, " ")
	}
	return strings.Join(lines, "\n")
}

// TestMaskRuntimes: renders that differ only in a runtime compare equal
// after masking, even when that runtime widens its column's rule;
// renders that differ in a size do not.
func TestMaskRuntimes(t *testing.T) {
	render := func(drSeconds float64, sourceSize int) string {
		r := &Table2Result{
			Rows: []MethodRow{
				{Task: "A -> B", Method: "TransER", Runtime: 560 * time.Millisecond},
				{Task: "A -> B", Method: "DR", Runtime: time.Duration(drSeconds * float64(time.Second))},
			},
			Sizes: map[string][2]int{"A -> B": {sourceSize, 3945}},
		}
		var buf bytes.Buffer
		r.RuntimeTable().Render(&buf)
		return buf.String()
	}
	fast, slow := render(9.60, 1214), render(21.78, 1214)
	if fast == slow {
		t.Fatal("renders with different DR runtimes are identical before masking")
	}
	if maskRuntimes(fast) != maskRuntimes(slow) {
		t.Errorf("masked renders differ in a runtime only:\n%s\n%s", maskRuntimes(fast), maskRuntimes(slow))
	}
	if other := render(9.60, 12140); maskRuntimes(fast) == maskRuntimes(other) {
		t.Errorf("masked renders with sizes 1214 and 12140 compare equal:\n%s", maskRuntimes(other))
	}
}

// checkGolden renders one experiment and diffs it against its file.
func checkGolden(t *testing.T, name string) {
	t.Helper()
	path := filepath.Join("..", "..", name+"_output.txt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	var buf bytes.Buffer
	if err := RenderExperiment(&buf, name, goldenOpts()); err != nil {
		t.Fatalf("regenerating %s: %v", name, err)
	}
	got := normalizeGolden(buf.String())
	want := normalizeGolden(string(raw))
	if name == "table2" {
		got, want = maskRuntimes(got), maskRuntimes(want)
	}
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	if len(gl) != len(wl) {
		t.Errorf("%s: regenerated %d lines, golden file has %d", name, len(gl), len(wl))
	}
	shown := 0
	for i := 0; i < len(gl) && i < len(wl) && shown < 5; i++ {
		if gl[i] != wl[i] {
			t.Errorf("%s line %d differs:\n  got:  %q\n  want: %q", name, i+1, gl[i], wl[i])
			shown++
		}
	}
	if shown == 0 {
		t.Errorf("%s: outputs differ only in length", name)
	}
}

func TestGoldenFigure5(t *testing.T) {
	checkGolden(t, "figure5")
}

func TestGoldenFigure2(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale figure 2 regeneration skipped in -short mode")
	}
	checkGolden(t, "figure2")
}

func TestGoldenTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale table 1 regeneration skipped in -short mode")
	}
	checkGolden(t, "table1")
}

// TestGoldenFull regenerates the slow full-scale experiments (table2
// alone runs every transfer method over eight tasks at scale 0.5); all
// four take about 75 s on a 2-vCPU VM. It only runs when
// TRANSER_GOLDEN=1 is set, and a slower machine may need a -timeout
// above go test's 10-minute default:
//
//	TRANSER_GOLDEN=1 go test -run TestGoldenFull -timeout 30m ./internal/experiments/
func TestGoldenFull(t *testing.T) {
	if os.Getenv("TRANSER_GOLDEN") == "" {
		t.Skip("set TRANSER_GOLDEN=1 to regenerate the slow full-scale experiments")
	}
	for _, name := range []string{"table2", "figure6", "figure7", "table4"} {
		t.Run(name, func(t *testing.T) {
			checkGolden(t, name)
		})
	}
}
