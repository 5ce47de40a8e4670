package lemp

import (
	"io"
	"os"

	"lemp/internal/matrix"
)

// Matrix construction and I/O conveniences, re-exported from the internal
// matrix package so library users never import internal paths.

// NewMatrix returns an r-dimensional matrix with n zero vectors.
func NewMatrix(r, n int) *Matrix { return matrix.New(r, n) }

// MatrixFromVectors builds a matrix from equal-length vectors (copied).
func MatrixFromVectors(vs [][]float64) (*Matrix, error) { return matrix.FromVectors(vs) }

// MatrixFromData wraps an existing backing slice of n vectors of dimension
// r without copying; len(data) must equal r*n.
func MatrixFromData(r, n int, data []float64) (*Matrix, error) {
	return matrix.FromData(r, n, data)
}

// ReadMatrix reads a matrix in the library's binary format (LEMPMAT1).
func ReadMatrix(r io.Reader) (*Matrix, error) { return matrix.ReadBinary(r) }

// WriteMatrix writes a matrix in the library's binary format (LEMPMAT1).
func WriteMatrix(w io.Writer, m *Matrix) error { return matrix.WriteBinary(w, m) }

// ReadMatrixCSV reads one comma-separated vector per line.
func ReadMatrixCSV(r io.Reader) (*Matrix, error) { return matrix.ReadCSV(r) }

// WriteMatrixCSV writes one comma-separated vector per line.
func WriteMatrixCSV(w io.Writer, m *Matrix) error { return matrix.WriteCSV(w, m) }

// LoadMatrix reads a matrix file, choosing the binary or CSV decoder by the
// file's leading bytes.
func LoadMatrix(path string) (*Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var magic [8]byte
	n, err := io.ReadFull(f, magic[:])
	switch {
	case err == io.EOF: // an empty file is an empty matrix
		return matrix.New(0, 0), nil
	case err != nil && err != io.ErrUnexpectedEOF: // shorter than the magic: CSV
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if string(magic[:n]) == "LEMPMAT1" {
		return matrix.ReadBinary(f)
	}
	return matrix.ReadCSV(f)
}
