// Package cli adapts the cmd tools' testable run(args, stdout)
// functions to process exit semantics: -h/-help exits 0 after the
// flag package prints usage, flag-parse errors exit 2 without being
// printed a second time, and every other error is logged once and
// exits 1.  FleetJob is the tools' shared -backends path.
package cli

import (
	"errors"
	"flag"
	"io"
	"log"
	"os"
)

// ParseError marks a flag-parse failure that the flag package has
// already reported to the FlagSet's output.
type ParseError struct{ Err error }

func (e ParseError) Error() string { return e.Err.Error() }
func (e ParseError) Unwrap() error { return e.Err }

// Parse runs fs.Parse and tags any failure as a ParseError so Main
// knows not to print it again.
func Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return ParseError{err}
	}
	return nil
}

// Main invokes run with the process arguments and stdout and exits
// accordingly.
func Main(run func(args []string, stdout io.Writer) error) {
	log.SetFlags(0)
	err := run(os.Args[1:], os.Stdout)
	var pe ParseError
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
	case errors.As(err, &pe):
		os.Exit(2)
	default:
		log.Fatal(err)
	}
}
