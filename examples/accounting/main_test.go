package main

import (
	"testing"

	"repro/examples/internal/golden"
)

func TestStdoutGolden(t *testing.T) { golden.Stdout(t, main) }
