module wisedb/bench

go 1.24

require wisedb v0.0.0

replace wisedb => ../
