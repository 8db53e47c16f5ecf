let default_eps = 1e-9

let approx_eq ?(eps = default_eps) a b =
  if a = b then true
  else if Float.is_nan a || Float.is_nan b then false
  else if Float.is_finite a && Float.is_finite b then
    let diff = Float.abs (a -. b) in
    let scale = Float.max (Float.abs a) (Float.abs b) in
    diff <= eps || diff <= eps *. scale
  else false

let leq ?eps a b = a < b || approx_eq ?eps a b

let approx_eq_rel ?(eps = default_eps) a b =
  if a = b then true
  else if Float.is_nan a || Float.is_nan b then false
  else if Float.is_finite a && Float.is_finite b then begin
    let diff = Float.abs (a -. b) in
    let scale = Float.max (Float.abs a) (Float.abs b) in
    diff <= eps *. scale
  end
  else false

let leq_rel ?eps a b = a < b || approx_eq_rel ?eps a b
let geq ?eps a b = a > b || approx_eq ?eps a b

let compare ?eps a b = if approx_eq ?eps a b then 0 else Float.compare a b

let clamp ~lo ~hi x = Float.min hi (Float.max lo x)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let is_probability x = Float.is_finite x && x >= 0.0 && x <= 1.0
