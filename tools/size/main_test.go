package main

import "testing"

func TestCodeLines(t *testing.T) {
	src := "// Package p is a comment.\npackage p\n\n/* a block\n   comment */\nvar s = `raw\n\nstring` // trailing\n\nfunc f() {\n\t// inside\n\treturn\n}\n"
	n, err := codeLines("p.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	// package; var s = `raw; the blank line inside the raw string;
	// string`; func f() {; return; }.
	if n != 7 {
		t.Errorf("codeLines = %d, want 7", n)
	}
}
