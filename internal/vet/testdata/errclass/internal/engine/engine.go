package engine

import "errors"

var (
	// ErrConflict is classified (IsRetryable).
	ErrConflict = errors.New("conflict")

	// ErrNoClass is never classified.
	ErrNoClass = errors.New("noclass") // want `sentinel ErrNoClass is not referenced by engine\.IsRetryable or engine\.Classify`

	// ErrFine is classified by annotation: fatal by default.
	//
	//ermia:classify fatal fixture: intentionally fatal
	ErrFine = errors.New("fine")
)

// IsRetryable is the classifier the analyzer scans for references.
func IsRetryable(err error) bool { return errors.Is(err, ErrConflict) }
