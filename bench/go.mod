module progressest/bench

go 1.24

require progressest v0.0.0

replace progressest => ../
