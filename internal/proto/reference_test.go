package proto

// The allocating insert decoders: one fresh Batch per call. Production
// code decodes into a reused Batch (ParseInsertBatch/ParseInsertAtBatch);
// these stay as the reference the pooled-equivalence tests and the two
// insert fuzz targets compare that path against.

// ParseInsert decodes an Insert body into fresh slices. The batch's slice
// lengths always match; index bounds are the server's to validate. The
// server's reader loop uses ParseInsertBatch with pooled scratch instead.
func ParseInsert(body []byte) (seq uint64, rows, cols, vals []uint64, err error) {
	var b Batch
	if seq, err = ParseInsertBatch(body, &b); err != nil {
		return 0, nil, nil, nil, err
	}
	return seq, b.Rows, b.Cols, b.Vals, nil
}

// ParseInsertAt decodes an InsertAt body into fresh slices. The server's
// reader loop uses ParseInsertAtBatch with pooled scratch instead.
func ParseInsertAt(body []byte) (seq, ts uint64, rows, cols, vals []uint64, err error) {
	var b Batch
	if seq, ts, err = ParseInsertAtBatch(body, &b); err != nil {
		return 0, 0, nil, nil, nil, err
	}
	return seq, ts, b.Rows, b.Cols, b.Vals, nil
}
