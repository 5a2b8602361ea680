// qbench lives in its own module so the root module's build and tests are
// untouched; the import path still sits under repro/, which is what lets it
// import repro/internal/....
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
