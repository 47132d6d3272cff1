package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"checkpointsim/internal/storage"
)

// Every quick experiment must run clean under the trace-conformance
// checker (any invariant violation fails the run), and validation must be
// a pure observer: the rendered tables stay byte-identical to the
// unvalidated goldens. Runs with a constrained store are validated too.
func TestValidatedQuickSweepMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs quick experiments under validation")
	}
	for _, id := range allIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			o := DefaultOptions()
			o.Quick = true
			o.Validate = true
			got := renderOpts(t, id, o)
			path := filepath.Join("testdata", strings.ToLower(id)+"_quick_seed42.golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s validated output drifted from golden %s — validation perturbed results",
					id, path)
			}
		})
	}
	// The experiments that write through Options.Storage must also reconcile
	// clean against a bandwidth-limited store (2 GB/s aggregate, as
	// `sweep -store-agg 2`). Their tables differ from the goldens, so only
	// the checker's verdict is asserted.
	for _, id := range []string{"E4", "E8", "E17", "E19"} {
		id := id
		t.Run(id+"-store-agg-2", func(t *testing.T) {
			t.Parallel()
			o := DefaultOptions()
			o.Quick = true
			o.Validate = true
			o.Storage = storage.Params{AggregateBytesPerSec: 2e9}
			renderOpts(t, id, o)
		})
	}
}
