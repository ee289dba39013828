package orphanuser

import (
	"testing"

	"repro/tools/basilvet/testdata/src/internal"
)

func TestUsed(t *testing.T) {
	if internal.Used() != 1 {
		t.Fatal("fixture")
	}
}
