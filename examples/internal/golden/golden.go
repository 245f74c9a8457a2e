// Package golden pins an example's stdout: the examples are the
// repository's front door, so what they print is compared byte for
// byte against a committed file.  Each file is exactly the example's
// stdout, so after a change that is meant to move an example's output,
// refresh its file by running the example:
//
//	go run ./examples/<name> > examples/<name>/testdata/stdout.golden
package golden

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// Stdout runs main with os.Stdout captured and compares what it printed
// against testdata/stdout.golden in the example's directory.
func Stdout(t *testing.T, main func()) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	read := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		read <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	main()
	os.Stdout = stdout
	w.Close()
	got := <-read

	const path = "testdata/stdout.golden"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stdout differs from %s\n--- got:\n%s\n--- want:\n%s", path, got, want)
	}
}
