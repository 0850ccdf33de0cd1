package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
)

func TestWriteMarkdownReport(t *testing.T) {
	s := quickSuite(t)
	var out strings.Builder
	if err := WriteMarkdownReport(context.Background(), s, &out, []string{"table1", "ablate-tiling"}, time.Unix(0, 0).UTC(), runner.Options{}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, frag := range []string{
		"# Reproduction report",
		"## Contents",
		"## table1",
		"## ablate-tiling",
		"1970-01-01T00:00:00Z",
		"```text",
	} {
		if !strings.Contains(got, frag) {
			t.Errorf("report missing %q", frag)
		}
	}
	if err := WriteMarkdownReport(context.Background(), s, &out, []string{"bogus"}, time.Now(), runner.Options{}); err == nil {
		t.Error("unknown id accepted")
	}
}
